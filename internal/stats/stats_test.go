package stats_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/stats"
)

func TestComponentsBasic(t *testing.T) {
	img := binimg.MustParse(`
		##...
		##...
		....#`)
	lm, n := baseline.FloodFill(img, baseline.Conn8)
	comps := stats.Components(lm)
	if len(comps) != n || n != 2 {
		t.Fatalf("len(comps) = %d, n = %d, want 2", len(comps), n)
	}
	sq := comps[0]
	if sq.Area != 4 || sq.MinX != 0 || sq.MaxX != 1 || sq.MinY != 0 || sq.MaxY != 1 {
		t.Fatalf("square component wrong: %+v", sq)
	}
	if sq.CentroidX != 0.5 || sq.CentroidY != 0.5 {
		t.Fatalf("square centroid (%v,%v), want (0.5,0.5)", sq.CentroidX, sq.CentroidY)
	}
	if sq.Width() != 2 || sq.Height() != 2 || sq.BBoxArea() != 4 || sq.Extent() != 1 {
		t.Fatalf("square geometry wrong: %+v", sq)
	}
	dot := comps[1]
	if dot.Area != 1 || dot.MinX != 4 || dot.MinY != 2 {
		t.Fatalf("dot component wrong: %+v", dot)
	}
}

func TestComponentsEmpty(t *testing.T) {
	lm := binimg.NewLabelMap(5, 5)
	if comps := stats.Components(lm); len(comps) != 0 {
		t.Fatalf("empty map produced %d components", len(comps))
	}
}

func TestComponentsAreaSumsToForeground(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	img := binimg.New(40, 40)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	lm := &binimg.LabelMap{}
	core.PAREMSP(context.Background(), img, lm, nil, core.Options{Threads: 1}) // AREMSP
	var total int64
	for _, c := range stats.Components(lm) {
		total += c.Area
	}
	if total != int64(img.ForegroundCount()) {
		t.Fatalf("areas sum to %d, want %d", total, img.ForegroundCount())
	}
}

func TestValidateAcceptsCorrectLabeling(t *testing.T) {
	img := binimg.MustParse("#.#\n.#.\n#.#")
	lm, n := baseline.FloodFill(img, baseline.Conn8)
	if err := stats.Validate(img, lm, n, true); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	img := binimg.MustParse("##.\n...\n..#")
	lm, n := baseline.FloodFill(img, baseline.Conn8) // labels: 1 and 2

	cases := []struct {
		name    string
		mutate  func(*binimg.LabelMap) (*binimg.LabelMap, int)
		errPart string
	}{
		{"shape mismatch", func(m *binimg.LabelMap) (*binimg.LabelMap, int) {
			return binimg.NewLabelMap(2, 2), n
		}, "shape"},
		{"labeled background", func(m *binimg.LabelMap) (*binimg.LabelMap, int) {
			m.Set(2, 0, 1)
			return m, n
		}, "background"},
		{"unlabeled foreground", func(m *binimg.LabelMap) (*binimg.LabelMap, int) {
			m.Set(0, 0, 0)
			return m, n
		}, "unlabeled"},
		{"wrong count", func(m *binimg.LabelMap) (*binimg.LabelMap, int) {
			return m, 3
		}, "claimed"},
		{"non-consecutive", func(m *binimg.LabelMap) (*binimg.LabelMap, int) {
			m.Set(2, 2, 9) // component 2 renamed to 9
			return m, 2
		}, "consecutive"},
		{"split component", func(m *binimg.LabelMap) (*binimg.LabelMap, int) {
			m.Set(1, 0, 2) // half of component 1 renamed
			return m, 2
		}, "differ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, claimed := tc.mutate(lm.Clone())
			err := stats.Validate(img, m, claimed, true)
			if err == nil {
				t.Fatalf("mutation accepted")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

func TestValidateDetectsFusedComponents(t *testing.T) {
	// Two separate components given the same label: adjacency checks pass
	// (no adjacent disagreeing pixels), only the component count exposes it.
	img := binimg.MustParse("#...#")
	lm := binimg.NewLabelMap(5, 1)
	lm.Set(0, 0, 1)
	lm.Set(4, 0, 1)
	if err := stats.Validate(img, lm, 1, true); err == nil {
		t.Fatal("fused labeling accepted")
	}
}

func TestEquivalentAcceptsRelabeling(t *testing.T) {
	img := binimg.MustParse("#.#\n...\n#.#")
	a, _ := baseline.FloodFill(img, baseline.Conn8)
	b := a.Clone()
	// Permute labels 1..4 -> 4,3,2,1.
	for i, v := range b.L {
		if v != 0 {
			b.L[i] = 5 - v
		}
	}
	if err := stats.Equivalent(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentRejections(t *testing.T) {
	img := binimg.MustParse("#.#")
	a, _ := baseline.FloodFill(img, baseline.Conn8)

	// Foreground mismatch.
	b := a.Clone()
	b.L[0] = 0
	if err := stats.Equivalent(a, b); err == nil {
		t.Fatal("foreground mismatch accepted")
	}

	// Non-injective mapping: two labels in a map to one label in b.
	b = a.Clone()
	b.L[2] = b.L[0]
	if err := stats.Equivalent(a, b); err == nil {
		t.Fatal("fusing map accepted")
	}

	// Non-functional mapping: one label in a maps to two labels in b.
	c := binimg.NewLabelMap(3, 1)
	c.L[0] = 1
	c.L[2] = 2
	d := binimg.NewLabelMap(3, 1)
	d.L[0] = 1
	d.L[2] = 1
	if err := stats.Equivalent(d, c); err == nil {
		t.Fatal("splitting map accepted")
	}

	// Shape mismatch.
	if err := stats.Equivalent(a, binimg.NewLabelMap(2, 2)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
