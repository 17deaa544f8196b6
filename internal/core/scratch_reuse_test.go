package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline"
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
			n, _, err := core.CCLREMSP(ctx, img, lm, sc, core.Options{})
			return n, err
		})},
		{"gray", binary(func(lm *binimg.LabelMap, sc *core.Scratch) (int, error) {
			n, _, err := grayccl.LabelIntoCtx(ctx, gray, lm, sc, core.Options{Threads: 3})
			return n, err
		})},
		{"volume", func(sc *core.Scratch) ([]binimg.Label, error) {
			lv := &vol3d.LabelVolume{}
			_, _, err := vol3d.LabelIntoCtx(ctx, vol, lv, sc, core.Options{Threads: 3})
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

// TestCountOnlyNeedsNoClearedMap: a count-only labeling (Options.CountOnly)
// scans into a label map it never clears, so a map whose every label is
// 0x7FFFFFFF — an index far past any parent array — must still give the
// flood-fill count: the scan and seam merge read a label only at a
// foreground pixel they labeled first, and nothing runs the relabel. The
// run kernels must leave the map untouched. A full labeling into the same
// map afterwards must clear it and match flood fill.
func TestCountOnlyNeedsNoClearedMap(t *testing.T) {
	ctx := context.Background()
	imgs := []*binimg.Image{
		dataset.UniformNoise(97, 61, 0.55, 43),
		dataset.UniformNoise(64, 33, 0.25, 44),
		dataset.LandCover(120, 75, 9, 0.5, 45),
	}
	image := func(alg func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error), threads int) func(*binimg.Image, *binimg.LabelMap, *core.Scratch, bool) (int, core.PhaseTimes, error) {
		return func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, countOnly bool) (int, core.PhaseTimes, error) {
			return alg(ctx, img, lm, sc, core.Options{Threads: threads, CountOnly: countOnly})
		}
	}
	cases := []struct {
		name     string
		keepsMap bool // never writes the map when counting
		label    func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, countOnly bool) (int, core.PhaseTimes, error)
	}{
		{"PAREMSP/t1", false, image(core.PAREMSP, 1)},
		{"PAREMSP/t2", false, image(core.PAREMSP, 2)},
		{"PAREMSP/t3", false, image(core.PAREMSP, 3)},
		{"CCLREMSP", false, func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, countOnly bool) (int, core.PhaseTimes, error) {
			return core.CCLREMSP(ctx, img, lm, sc, core.Options{CountOnly: countOnly})
		}},
		{"PBREMSP/image", true, image(core.PBREMSP, 3)},
		{"PBREMSP/bitmap", true, func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, countOnly bool) (int, core.PhaseTimes, error) {
			bm := &binimg.Bitmap{}
			bm.FromImage(img)
			return core.PBREMSPBitmap(ctx, bm, lm, sc, core.Options{Threads: 3, CountOnly: countOnly})
		}},
	}
	const stale = binimg.Label(0x7FFFFFFF)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := &core.Scratch{}
			for i, img := range imgs {
				want, wantN := baseline.FloodFill(img, baseline.Conn8)
				lm := &binimg.LabelMap{}
				lm.Reshape(img.Width, img.Height)
				for j := range lm.L {
					lm.L[j] = stale
				}
				n, times, err := c.label(img, lm, sc, true)
				if err != nil {
					t.Fatal(err)
				}
				if n != wantN {
					t.Fatalf("image %d: count-only gave %d components, flood fill %d", i, n, wantN)
				}
				if times.Relabel != 0 {
					t.Fatalf("image %d: count-only relabel took %v, want 0", i, times.Relabel)
				}
				if c.keepsMap && slices.ContainsFunc(lm.L, func(v binimg.Label) bool { return v != stale }) {
					t.Fatalf("image %d: count-only run kernel wrote the label map", i)
				}
				if n, _, err = c.label(img, lm, sc, false); err != nil {
					t.Fatal(err)
				}
				if n != wantN {
					t.Fatalf("image %d: full labeling after count-only gave %d components, flood fill %d", i, n, wantN)
				}
				if err := stats.Equivalent(lm, want); err != nil {
					t.Fatalf("image %d: full labeling after count-only: %v", i, err)
				}
			}
		})
	}
}

// TestGrayNeedsNoClearedMap: the gray labelers reshape their label map
// without clearing it, since the pair-row and Rosenfeld scans write every
// pixel before anything reads one. A map whose every label is 0x7FFFFFFF
// must therefore give the labels a fresh map gets.
func TestGrayNeedsNoClearedMap(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(46))
	imgs := []*grayccl.Image{grayccl.New(53, 37), grayccl.New(64, 1), grayccl.New(1, 29)}
	for _, img := range imgs {
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(3) * 40)
		}
	}
	cases := []struct {
		name  string
		label func(img *grayccl.Image, lm *binimg.LabelMap) (int, core.PhaseTimes, error)
	}{
		{"gray/t1", func(img *grayccl.Image, lm *binimg.LabelMap) (int, core.PhaseTimes, error) {
			return grayccl.LabelIntoCtx(ctx, img, lm, nil, core.Options{Threads: 1})
		}},
		{"gray/t3", func(img *grayccl.Image, lm *binimg.LabelMap) (int, core.PhaseTimes, error) {
			return grayccl.LabelIntoCtx(ctx, img, lm, nil, core.Options{Threads: 3})
		}},
		{"gray-delta", func(img *grayccl.Image, lm *binimg.LabelMap) (int, core.PhaseTimes, error) {
			return grayccl.LabelDeltaIntoCtx(ctx, img, lm, nil, 40)
		}},
	}
	const stale = binimg.Label(0x7FFFFFFF)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i, img := range imgs {
				fresh := &binimg.LabelMap{}
				wantN, _, err := c.label(img, fresh)
				if err != nil {
					t.Fatal(err)
				}
				lm := &binimg.LabelMap{L: make([]binimg.Label, len(img.Pix)+5)}
				for j := range lm.L {
					lm.L[j] = stale
				}
				n, _, err := c.label(img, lm)
				if err != nil {
					t.Fatal(err)
				}
				if n != wantN || !slices.Equal(lm.L, fresh.L) {
					t.Fatalf("image %d: a stale map gave %d components and different labels, a fresh one %d", i, n, wantN)
				}
			}
		})
	}
}

// TestRunRelabelNeedsNoClearedMap: a full run-kernel labeling reshapes its
// label map without clearing it, because the run relabel writes every
// pixel of its rows, background included. A pooled map whose every label
// is 0x7FFFFFFF must therefore relabel to the bytes a fresh map gets, for
// every run entry point and thread count, across shrinking and growing
// shapes.
func TestRunRelabelNeedsNoClearedMap(t *testing.T) {
	ctx := context.Background()
	type runLabel func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, threads int) (int, error)
	packed := func(alg func(context.Context, *binimg.Bitmap, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error)) runLabel {
		return func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, threads int) (int, error) {
			bm := &binimg.Bitmap{}
			bm.FromImage(img)
			n, _, err := alg(ctx, bm, lm, sc, core.Options{Threads: threads})
			return n, err
		}
	}
	cases := []struct {
		name  string
		label runLabel
	}{
		{"PBREMSP/image", func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, threads int) (int, error) {
			n, _, err := core.PBREMSP(ctx, img, lm, sc, core.Options{Threads: threads})
			return n, err
		}},
		{"PBREMSP/bitmap", packed(core.PBREMSPBitmap)},
		{"PAREMSP/bitmap", packed(core.PAREMSPBitmap)},
	}
	shapes := []struct{ w, h int }{{200, 150}, {5, 3}, {64, 64}, {3, 200}, {129, 7}, {1, 1}, {150, 90}}
	const stale = binimg.Label(0x7FFFFFFF)
	for _, c := range cases {
		for _, threads := range []int{1, 3} {
			t.Run(c.name, func(t *testing.T) {
				sc := &core.Scratch{}
				pooled := &binimg.LabelMap{}
				for i, s := range shapes {
					img := dataset.UniformNoise(s.w, s.h, 0.45, int64(50+i))
					fresh := &binimg.LabelMap{}
					want, err := c.label(img, fresh, nil, threads)
					if err != nil {
						t.Fatal(err)
					}
					pooled.L = pooled.L[:cap(pooled.L)]
					for j := range pooled.L {
						pooled.L[j] = stale
					}
					n, err := c.label(img, pooled, sc, threads)
					if err != nil {
						t.Fatal(err)
					}
					if n != want || !slices.Equal(pooled.L, fresh.L) {
						t.Fatalf("threads %d, %dx%d: a stale pooled map gave %d components and different labels, a fresh one %d",
							threads, s.w, s.h, n, want)
					}
				}
			})
		}
	}
}
