package core_test

import (
	"testing"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
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
