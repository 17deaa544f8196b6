package baseline_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func randomImage(rng *rand.Rand, maxW, maxH int) *binimg.Image {
	w, h := 1+rng.Intn(maxW), 1+rng.Intn(maxH)
	img := binimg.New(w, h)
	density := rng.Float64()
	for i := range img.Pix {
		if rng.Float64() < density {
			img.Pix[i] = 1
		}
	}
	return img
}

func TestFloodFillKnownCases(t *testing.T) {
	cases := []struct {
		art   string
		want8 int
		want4 int
	}{
		{"#", 1, 1},
		{".", 0, 0},
		{"#.\n.#", 1, 2},        // diagonal: one 8-conn, two 4-conn
		{"#.#\n.#.\n#.#", 1, 5}, // X pattern
		{"##\n##", 1, 1},
		{"#.#", 2, 2},
		{"###\n#.#\n###", 1, 1}, // ring
		{"#....#", 2, 2},
	}
	for _, tc := range cases {
		img := binimg.MustParse(tc.art)
		if _, n := baseline.FloodFill(img, baseline.Conn8); n != tc.want8 {
			t.Errorf("8-conn components of\n%s\n= %d, want %d", img, n, tc.want8)
		}
		if _, n := baseline.FloodFill(img, baseline.Conn4); n != tc.want4 {
			t.Errorf("4-conn components of\n%s\n= %d, want %d", img, n, tc.want4)
		}
	}
}

func TestFloodFillRasterOrderLabels(t *testing.T) {
	img := binimg.MustParse(`
		#..#
		#..#
		....
		#..#`)
	lm, n := baseline.FloodFill(img, baseline.Conn8)
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	// Components numbered by first pixel in raster order.
	if lm.At(0, 0) != 1 || lm.At(3, 0) != 2 || lm.At(0, 3) != 3 || lm.At(3, 3) != 4 {
		t.Fatalf("labels not in raster order:\n%s", lm)
	}
}

func TestFloodFillValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomImage(rng, 30, 30)
		lm8, n8 := baseline.FloodFill(img, baseline.Conn8)
		lm4, n4 := baseline.FloodFill(img, baseline.Conn4)
		return stats.Validate(img, lm8, n8, true) == nil &&
			stats.Validate(img, lm4, n4, false) == nil &&
			n4 >= n8 // 4-conn never has fewer components
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// algs8 is the 8-connected baseline family under test.
var algs8 = map[string]func(*binimg.Image) (*binimg.LabelMap, int){
	"CCLLRPC":  baseline.CCLLRPC,
	"ARUN":     baseline.ARUN,
	"RUN":      baseline.RUN,
	"Classic8": baseline.Classic8,
	"MultiPass8": func(im *binimg.Image) (*binimg.LabelMap, int) {
		lm, n, _ := baseline.MultiPass(im, baseline.Conn8, nil)
		return lm, n
	},
}

func TestBaselinesMatchFloodFill(t *testing.T) {
	for name, f := range algs8 {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				img := randomImage(rng, 36, 36)
				lm, n := f(img)
				ref, nRef := baseline.FloodFill(img, baseline.Conn8)
				return n == nRef && stats.Equivalent(lm, ref) == nil &&
					stats.Validate(img, lm, n, true) == nil
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBaselines4ConnMatchFloodFill(t *testing.T) {
	for name, f := range map[string]func(*binimg.Image) (*binimg.LabelMap, int){
		"Classic4": baseline.Classic4,
		"MultiPass4": func(im *binimg.Image) (*binimg.LabelMap, int) {
			lm, n, _ := baseline.MultiPass(im, baseline.Conn4, nil)
			return lm, n
		},
	} {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				img := randomImage(rng, 36, 36)
				lm, n := f(img)
				ref, nRef := baseline.FloodFill(img, baseline.Conn4)
				return n == nRef && stats.Equivalent(lm, ref) == nil
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBaselinesOnStructuredWorkloads exercises every baseline on the
// generator suite, including the spiral that is pathological for MultiPass.
func TestBaselinesOnStructuredWorkloads(t *testing.T) {
	images := map[string]*binimg.Image{
		"spiral":  dataset.Serpentine(61, 61, 1, 2),
		"rings":   dataset.ConcentricRings(48, 48, 1, 2),
		"checker": dataset.Checkerboard(32, 32, 1),
		"noise":   dataset.UniformNoise(64, 48, 0.5, 42),
		"text":    dataset.Text(80, 40, "RUN", 1, 2),
	}
	for imgName, img := range images {
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		for algName, f := range algs8 {
			lm, n := f(img)
			if n != nRef {
				t.Errorf("%s on %s: n = %d, want %d", algName, imgName, n, nRef)
				continue
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Errorf("%s on %s: %v", algName, imgName, err)
			}
		}
	}
}

// TestRUNHandlesRunGeometry pins run-specific edge cases: runs touching only
// diagonally, runs spanning the full row, adjacent runs in one row.
func TestRUNHandlesRunGeometry(t *testing.T) {
	cases := []string{
		"########",                     // one full-width run
		"##.##.##",                     // three runs in one row
		"##......\n..######",           // diagonal touch at x=2 via 8-conn window
		"...##...\n##....##",           // one upper run bridges two lower runs
		"#.......\n.#......\n..#.....", // diagonal staircase of 1-runs
		"##.##\n..#..",                 // lower run merges two upper runs
	}
	for _, art := range cases {
		img := binimg.MustParse(art)
		lm, n := baseline.RUN(img)
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n != nRef {
			t.Errorf("RUN on\n%s\nn = %d, want %d", img, n, nRef)
			continue
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Errorf("RUN on\n%s\n%v", img, err)
		}
	}
}

// TestMultiPassSpiralTerminates: the spiral forces many propagation passes;
// the algorithm must still converge to one component.
func TestMultiPassSpiralTerminates(t *testing.T) {
	img := dataset.Serpentine(41, 41, 1, 2)
	_, n, _ := baseline.MultiPass(img, baseline.Conn8, nil)
	_, nRef := baseline.FloodFill(img, baseline.Conn8)
	if n != nRef {
		t.Fatalf("MultiPass spiral: n = %d, want %d", n, nRef)
	}
}

func TestRankPCSinkFlattenPostconditions(t *testing.T) {
	s := baseline.NewRankPCSink(16)
	a, b, c := s.NewLabel(), s.NewLabel(), s.NewLabel()
	d := s.NewLabel()
	s.Merge(a, c)
	s.Merge(b, d)
	n := s.Flatten()
	if n != 2 {
		t.Fatalf("Flatten = %d, want 2", n)
	}
	// Sets numbered by smallest member: {1,3} -> 1, {2,4} -> 2.
	if s.Lookup(a) != 1 || s.Lookup(c) != 1 || s.Lookup(b) != 2 || s.Lookup(d) != 2 {
		t.Fatalf("lookups: %d %d %d %d", s.Lookup(a), s.Lookup(b), s.Lookup(c), s.Lookup(d))
	}
}

func TestHeSinkFlattenPostconditions(t *testing.T) {
	s := baseline.NewHeSink(16)
	a, b, c := s.NewLabel(), s.NewLabel(), s.NewLabel()
	s.Merge(a, c)
	n := s.Flatten()
	if n != 2 {
		t.Fatalf("Flatten = %d, want 2", n)
	}
	if s.Lookup(a) != 1 || s.Lookup(c) != 1 || s.Lookup(b) != 2 {
		t.Fatalf("lookups: %d %d %d", s.Lookup(a), s.Lookup(b), s.Lookup(c))
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
}
