package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestBitScanDifferential is the property test for the bit-packed pipeline:
// BREMSP and PBREMSP must produce label maps equivalent (up to relabeling)
// to CCLREMSP on random images across the density range 1-99%, non-word-
// multiple widths, and degenerate 1-pixel-tall/wide rasters.
func TestBitScanDifferential(t *testing.T) {
	widths := []int{1, 3, 17, 63, 64, 65, 127, 129}
	heights := []int{1, 2, 3, 31, 64}
	densities := []float64{0.01, 0.05, 0.25, 0.50, 0.75, 0.95, 0.99}
	rng := rand.New(rand.NewSource(42))
	for _, w := range widths {
		for _, h := range heights {
			for _, d := range densities {
				img := binimg.New(w, h)
				for i := range img.Pix {
					if rng.Float64() < d {
						img.Pix[i] = 1
					}
				}
				ref, nRef := cclremsp(img)
				checkLabeling(t, "BREMSP", img, ref, nRef, func() (*binimg.LabelMap, int) {
					return bremsp(img)
				})
				for _, threads := range []int{1, 2, 3, 7} {
					checkLabeling(t, "PBREMSP", img, ref, nRef, func() (*binimg.LabelMap, int) {
						return pbremsp(img, threads)
					})
				}
			}
		}
	}
}

func checkLabeling(t *testing.T, name string, img *binimg.Image, ref *binimg.LabelMap, nRef int, run func() (*binimg.LabelMap, int)) {
	t.Helper()
	lm, n := run()
	if n != nRef {
		t.Fatalf("%s on %dx%d: %d components, want %d\n%s", name, img.Width, img.Height, n, nRef, img)
	}
	if err := stats.Equivalent(lm, ref); err != nil {
		t.Fatalf("%s on %dx%d: %v\n%s\ngot:\n%s\nwant:\n%s", name, img.Width, img.Height, err, img, lm, ref)
	}
	if err := stats.Validate(img, lm, n, true); err != nil {
		t.Fatalf("%s on %dx%d: %v\n%s", name, img.Width, img.Height, err, img)
	}
}

// TestBitScanFixtures pins the structured cases where run merging differs
// most from pixel scanning.
func TestBitScanFixtures(t *testing.T) {
	cases := []struct {
		name string
		art  string
		want int
	}{
		{"empty", `...`, 0},
		{"full row", `#####`, 1},
		{"single pixel column", `
			#
			.
			#`, 2},
		{"diagonal", `
			#..
			.#.
			..#`, 1},
		{"bridge", `
			##.##
			..#..
			##.##`, 1},
		{"nested rings", `
			#######
			#.....#
			#.###.#
			#.#.#.#
			#.###.#
			#.....#
			#######`, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := binimg.MustParse(tc.art)
			if _, n := bremsp(img); n != tc.want {
				t.Errorf("BREMSP: %d components, want %d", n, tc.want)
			}
			if _, n := pbremsp(img, 3); n != tc.want {
				t.Errorf("PBREMSP: %d components, want %d", n, tc.want)
			}
		})
	}
}

// TestBREMSPScratchReuse relabels differently-sized images through one
// Scratch and label map, the service engine's pooling pattern.
func TestBREMSPScratchReuse(t *testing.T) {
	sc := &core.Scratch{}
	lm := &binimg.LabelMap{}
	rng := rand.New(rand.NewSource(7))
	for _, dim := range [][2]int{{65, 65}, {5, 5}, {128, 32}, {1, 9}, {33, 77}} {
		img := binimg.New(dim[0], dim[1])
		for i := range img.Pix {
			if rng.Float64() < 0.5 {
				img.Pix[i] = 1
			}
		}
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n := bremspInto(img, lm, sc); n != nRef {
			t.Fatalf("BREMSP %dx%d: %d components, want %d", dim[0], dim[1], n, nRef)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("BREMSP %dx%d: %v", dim[0], dim[1], err)
		}
		if n := pbremspInto(4)(img, lm, sc); n != nRef {
			t.Fatalf("PBREMSP %dx%d: %d components, want %d", dim[0], dim[1], n, nRef)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("PBREMSP %dx%d: %v", dim[0], dim[1], err)
		}
	}
}

// FuzzBitScanAgainstFloodFill mirrors FuzzLabelersAgainstFloodFill for the
// bit-packed algorithms.
func FuzzBitScanAgainstFloodFill(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{1, 1, 1, 1})
	f.Add([]byte{8, 0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte{31, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := int(data[0])%96 + 1 // cross the 64-pixel word boundary regularly
		body := data[1:]
		if len(body) > 96*32 {
			body = body[:96*32]
		}
		h := (len(body) + w - 1) / w
		if h == 0 {
			return
		}
		img := binimg.New(w, h)
		for i := range body {
			img.Pix[i] = body[i] & 1
		}
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		for name, run := range map[string]func(*binimg.Image) (*binimg.LabelMap, int){
			"BREMSP":   bremsp,
			"PBREMSP3": func(im *binimg.Image) (*binimg.LabelMap, int) { return pbremsp(im, 3) },
		} {
			lm, n := run(img)
			if n != nRef {
				t.Fatalf("%s: %d components, oracle %d\n%s", name, n, nRef, img)
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, img)
			}
		}
	})
}

// TestFoldMatchesComponents: every run-kernel entry point asked for
// components (Options.Components) folds exactly stats.Components of the
// map it writes, Runs included, at every thread count, through one
// Scratch whose fold table shrinks and grows across shapes and densities.
func TestFoldMatchesComponents(t *testing.T) {
	ctx := context.Background()
	packed := func(alg func(context.Context, *binimg.Bitmap, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error)) func(*binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error) {
		return func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, opt core.Options) (int, core.PhaseTimes, error) {
			bm := &binimg.Bitmap{}
			bm.FromImage(img)
			return alg(ctx, bm, lm, sc, opt)
		}
	}
	cases := []struct {
		name  string
		label func(*binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error)
	}{
		{"PBREMSP/image", func(img *binimg.Image, lm *binimg.LabelMap, sc *core.Scratch, opt core.Options) (int, core.PhaseTimes, error) {
			return core.PBREMSP(ctx, img, lm, sc, opt)
		}},
		{"PBREMSP/bitmap", packed(core.PBREMSPBitmap)},
		{"PAREMSP/bitmap", packed(core.PAREMSPBitmap)},
	}
	shapes := []struct{ w, h int }{{200, 150}, {5, 3}, {64, 64}, {3, 200}, {129, 7}, {1, 1}, {150, 90}}
	for _, c := range cases {
		for _, threads := range []int{1, 2, 5} {
			sc := &core.Scratch{}
			lm := &binimg.LabelMap{}
			for i, s := range shapes {
				img := dataset.UniformNoise(s.w, s.h, []float64{0.2, 0.5, 0.8}[i%3], int64(60+i))
				n, _, err := c.label(img, lm, sc, core.Options{Threads: threads, Components: true})
				if err != nil {
					t.Fatal(err)
				}
				got, _ := sc.Components()
				if want := stats.Components(lm); len(got) != n || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s threads %d, %dx%d: folded %d records %v, the map has %v", c.name, threads, s.w, s.h, len(got), got, want)
				}
			}
		}
	}
}
