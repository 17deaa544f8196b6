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

func TestSuzukiKnownCases(t *testing.T) {
	cases := []struct {
		art   string
		want8 int
	}{
		{"#", 1},
		{".", 0},
		{"#.\n.#", 1},
		{"#.#\n.#.\n#.#", 1},
		{"#...#", 2},
		{"###\n#.#\n###", 1},
	}
	for _, tc := range cases {
		img := binimg.MustParse(tc.art)
		lm, n, _ := baseline.Suzuki(img, baseline.Conn8, nil)
		if n != tc.want8 {
			t.Errorf("Suzuki components of\n%s\n= %d, want %d", img, n, tc.want8)
			continue
		}
		if err := stats.Validate(img, lm, n, true); err != nil {
			t.Errorf("Suzuki on\n%s\n%v", img, err)
		}
	}
}

func TestPropertySuzukiMatchesFloodFill(t *testing.T) {
	for _, conn := range []baseline.Connectivity{baseline.Conn4, baseline.Conn8} {
		conn := conn
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			img := randomImage(rng, 30, 30)
			lm, n, _ := baseline.Suzuki(img, conn, nil)
			ref, nRef := baseline.FloodFill(img, conn)
			return n == nRef && stats.Equivalent(lm, ref) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("conn %d: %v", conn, err)
		}
	}
}

// TestSuzukiSerpentineConverges: the serpentine is the multipass
// pathological case; Suzuki's table must still converge to one component
// (and, unlike plain MultiPass, in a bounded handful of sweeps).
func TestSuzukiSerpentineConverges(t *testing.T) {
	img := dataset.Serpentine(81, 81, 1, 2)
	lm, n, _ := baseline.Suzuki(img, baseline.Conn8, nil)
	if n != 1 {
		t.Fatalf("serpentine: n = %d, want 1", n)
	}
	if err := stats.Validate(img, lm, n, true); err != nil {
		t.Fatal(err)
	}
}

func TestSuzukiOnStructuredWorkloads(t *testing.T) {
	for name, img := range map[string]*binimg.Image{
		"checker": dataset.Checkerboard(40, 40, 1),
		"rings":   dataset.ConcentricRings(48, 48, 1, 2),
		"noise":   dataset.UniformNoise(64, 48, 0.5, 13),
		"blobs":   dataset.Blobs(64, 64, 10, 2, 6, 14),
	} {
		lm, n, _ := baseline.Suzuki(img, baseline.Conn8, nil)
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n != nRef {
			t.Errorf("%s: n = %d, want %d", name, n, nRef)
			continue
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
