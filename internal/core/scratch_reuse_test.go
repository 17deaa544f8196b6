package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/grayccl"
	"repro/internal/stats"
	"repro/internal/vol3d"
)

// TestScratchReuseAcrossSizes drives one Scratch (and one LabelMap) through
// a shrinking-then-growing sequence of image shapes with every *Into entry
// point. Reuse must never leak state between calls: the parent array, the
// retained bitmap (whose tail-bits-zero invariant must hold after a Reset
// to a narrower raster), and the per-chunk run buffers are all recycled, so
// any stale byte shows up as a wrong partition. Each result is structurally
// validated against the image it claims to label.
func TestScratchReuseAcrossSizes(t *testing.T) {
	shapes := []struct{ w, h int }{
		{200, 150}, // large first, so every retained buffer is oversized below
		{5, 3},
		{64, 64},
		{3, 200},
		{129, 7},
		{1, 1},
		{150, 90},
		{65, 65},
	}
	algs := []struct {
		name string
		run  func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) int
	}{
		{"AREMSP", aremspInto},
		{"CCLREMSP", cclremspInto},
		{"BREMSP", bremspInto},
		{"PAREMSP", func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) int {
			n := paremspInto(3)(img, lm, sc)
			return n
		}},
		{"PBREMSP", func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) int {
			n := pbremspInto(3)(img, lm, sc)
			return n
		}},
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			sc := &core.Scratch{}
			lm := &binimg.LabelMap{}
			seed := int64(11)
			for round := 0; round < 2; round++ { // second round reuses warm buffers
				for _, s := range shapes {
					seed++
					img := dataset.UniformNoise(s.w, s.h, 0.55, seed)
					n := alg.run(img, lm, sc)
					if err := stats.Validate(img, lm, n, true); err != nil {
						t.Fatalf("round %d, %dx%d: %v", round, s.w, s.h, err)
					}
				}
			}
		})
	}
}

// TestScratchReuseAcrossAlgorithms interleaves the bit-packed and pixel
// algorithms on the same Scratch at alternating sizes — the service's
// pooled-scratch pattern, where one worker serves requests of any shape and
// algorithm back to back.
func TestScratchReuseAcrossAlgorithms(t *testing.T) {
	sc := &core.Scratch{}
	lm := &binimg.LabelMap{}
	big := dataset.UniformNoise(180, 120, 0.5, 5)
	small := dataset.UniformNoise(66, 9, 0.5, 6)
	steps := []struct {
		name string
		img  *binimg.Image
		run  func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch) int
	}{
		{"BREMSP/big", big, bremspInto},
		{"AREMSP/small", small, aremspInto},
		{"PBREMSP/big", big, func(img *binimg.Image, l *binimg.LabelMap, s *core.Scratch) int {
			n := pbremspInto(4)(img, l, s)
			return n
		}},
		{"BREMSP/small", small, bremspInto},
		{"PAREMSP/big", big, func(img *binimg.Image, l *binimg.LabelMap, s *core.Scratch) int {
			n := paremspInto(2)(img, l, s)
			return n
		}},
		{"BREMSP/big", big, bremspInto},
	}
	for _, st := range steps {
		n := st.run(st.img, lm, sc)
		if err := stats.Validate(st.img, lm, n, true); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
	}
}

// TestScratchParentsNeedNoClearing: a Scratch whose retained parent array
// holds 0xFFFFFFFF in every slot must give the label map a fresh Scratch
// gives. Run reuses the array without clearing it, so every kernel must read
// only the slots its own scan created — in the scan, the seam merge, FLATTEN
// over the created ranges, and the relabel.
func TestScratchParentsNeedNoClearing(t *testing.T) {
	ctx := context.Background()
	img := dataset.UniformNoise(97, 61, 0.55, 41)
	bm := &binimg.Bitmap{}
	bm.FromImage(img)
	rng := rand.New(rand.NewSource(42))
	gray := grayccl.New(53, 37)
	for i := range gray.Pix {
		gray.Pix[i] = uint8(rng.Intn(3) * 100)
	}
	vol := vol3d.NewVolume(13, 11, 9)
	for i := range vol.Vox {
		vol.Vox[i] = uint8(rng.Intn(2))
	}
	binary := func(label func(lm *binimg.LabelMap, sc *core.Scratch) (int, error)) func(*core.Scratch) ([]binimg.Label, error) {
		return func(sc *core.Scratch) ([]binimg.Label, error) {
			lm := &binimg.LabelMap{}
			_, err := label(lm, sc)
			return lm.L, err
		}
	}
	image := func(alg func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error), threads int) func(*core.Scratch) ([]binimg.Label, error) {
		return binary(func(lm *binimg.LabelMap, sc *core.Scratch) (int, error) {
			n, _, err := alg(ctx, img, lm, sc, core.Options{Threads: threads})
			return n, err
		})
	}
	cases := []struct {
		name  string
		label func(sc *core.Scratch) ([]binimg.Label, error)
	}{
		{"PAREMSP/t1", image(core.PAREMSP, 1)},
		{"PAREMSP/t2", image(core.PAREMSP, 2)},
		{"PAREMSP/t3", image(core.PAREMSP, 3)},
		{"PBREMSP/image", image(core.PBREMSP, 3)},
		{"PBREMSP/bitmap", binary(func(lm *binimg.LabelMap, sc *core.Scratch) (int, error) {
			n, _, err := core.PBREMSPBitmap(ctx, bm, lm, sc, core.Options{Threads: 3})
			return n, err
		})},
		{"CCLREMSP", binary(func(lm *binimg.LabelMap, sc *core.Scratch) (int, error) {
			n, _, err := core.CCLREMSP(ctx, img, lm, sc)
			return n, err
		})},
		{"gray", binary(func(lm *binimg.LabelMap, sc *core.Scratch) (int, error) {
			return grayccl.LabelIntoCtx(ctx, gray, lm, sc, core.Options{Threads: 3})
		})},
		{"volume", func(sc *core.Scratch) ([]binimg.Label, error) {
			lv := &vol3d.LabelVolume{}
			_, err := vol3d.LabelIntoCtx(ctx, vol, lv, sc, core.Options{Threads: 3})
			return lv.L, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := &core.Scratch{}
			want, err := c.label(sc)
			if err != nil {
				t.Fatal(err)
			}
			core.PoisonParents(sc, ^core.Label(0))
			got, err := c.label(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatal("label map over a poisoned parent array differs from a fresh Scratch's")
			}
		})
	}
}
