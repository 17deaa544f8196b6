package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func report(rows ...experiments.BenchResult) *experiments.BenchReport {
	return &experiments.BenchReport{Scale: 0.05, Repeats: 1, Results: rows}
}

func row(alg, class string, ns int64) experiments.BenchResult {
	return experiments.BenchResult{Algorithm: alg, Class: class, NsPerOp: ns}
}

func trow(alg, class string, threads int, ns int64) experiments.BenchResult {
	return experiments.BenchResult{Algorithm: alg, Class: class, Threads: threads, NsPerOp: ns}
}

func TestDiffReports(t *testing.T) {
	base := report(
		row("BREMSP", "Aerial", 1000),
		row("BREMSP", "Texture", 1000),
		row("ARemSP", "Aerial", 2000),
		row("Gone", "Aerial", 500),
		row("Zero", "Aerial", 0),
	)
	cur := report(
		row("BREMSP", "Aerial", 1600),  // +60%: regression
		row("BREMSP", "Texture", 1200), // +20%: within tolerance
		row("ARemSP", "Aerial", 2600),  // +30%: regression
		row("New", "Aerial", 900),      // not in baseline: added
		row("Zero", "Aerial", 900),     // zero baseline: ignored
	)
	scaled := row("Gone", "Aerial", 5000) // would regress, but measured at another scale
	scaled.Pixels = 999
	cur.Results = append(cur.Results, scaled)
	d := experiments.DiffReports(base, cur, 0.25, nil)
	regs := d.Regressions()
	if len(regs) != 2 {
		t.Fatalf("got %d regressions %+v, want 2", len(regs), regs)
	}
	if len(d.Pairs) != 3 { // the two BREMSP rows + ARemSP; New/Zero/scaled skipped
		t.Fatalf("compared %d pairs, want 3", len(d.Pairs))
	}
	// Sorted worst first.
	if r := regs[0]; r.Key.Algorithm != "BREMSP" || r.Key.Class != "Aerial" || r.Ratio != 1.6 {
		t.Fatalf("worst regression = %+v", r)
	}
	if r := regs[1]; r.Key.Algorithm != "ARemSP" || r.CurNs != 2600 {
		t.Fatalf("second regression = %+v", r)
	}
	// The evolved set is reported, not an error: New appears as added (plus
	// the rescaled Gone row), and Gone/Zero-at-new-pixels as removed.
	wantAdded := []string{"New/Aerial", "Gone/Aerial"}
	if len(d.Added) != len(wantAdded) {
		t.Fatalf("added = %v, want %v", d.Added, wantAdded)
	}
	for i, k := range d.Added {
		if k.String() != wantAdded[i] {
			t.Fatalf("added[%d] = %s, want %s", i, k, wantAdded[i])
		}
	}
	if len(d.Removed) != 1 || d.Removed[0].String() != "Gone/Aerial" {
		t.Fatalf("removed = %v, want [Gone/Aerial]", d.Removed)
	}
	if got := experiments.DiffReports(base, cur, 0.75, nil).Regressions(); len(got) != 0 {
		t.Fatalf("tolerance 0.75: got %+v, want none", got)
	}
	if d := experiments.DiffReports(report(row("X", "Y", 5)), cur, 0.25, nil); len(d.Pairs) != 0 {
		t.Fatalf("disjoint reports compared %d pairs, want 0", len(d.Pairs))
	}
}

// TestDiffReportsRescaledAndIdentical: a row measured at another pixel
// count is incomparable, so it is listed as both added and removed, and
// identical rows compare at ratio 1.0.
func TestDiffReportsRescaledAndIdentical(t *testing.T) {
	cur := fixtureReport()
	base := fixtureReport()
	base.Results[0].Pixels = 999
	d := experiments.DiffReports(base, cur, 0.25, nil)
	if len(d.Added) != 1 || d.Added[0].String() != "BREMSP/Aerial" {
		t.Fatalf("added = %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0].String() != "BREMSP/Aerial" {
		t.Fatalf("removed = %v", d.Removed)
	}
	if len(d.Pairs) != len(cur.Results)-1 {
		t.Fatalf("pairs = %+v", d.Pairs)
	}
	for _, p := range d.Pairs {
		if p.Ratio != 1.0 {
			t.Fatalf("identical reports produced ratio %v for %s", p.Ratio, p.Key)
		}
	}
}

func TestDiffReportsThreadsAware(t *testing.T) {
	base := report(
		trow("PBREMSP", "NLCD", 1, 4000),
		trow("PBREMSP", "NLCD", 4, 1500),
	)
	cur := report(
		trow("PBREMSP", "NLCD", 1, 4100), // fine
		trow("PBREMSP", "NLCD", 4, 3000), // 2x: regression at T=4 only
		trow("PBREMSP", "NLCD", 8, 1000), // new thread count: added
	)
	d := experiments.DiffReports(base, cur, 0.25, nil)
	if len(d.Pairs) != 2 {
		t.Fatalf("compared %d, want 2", len(d.Pairs))
	}
	if regs := d.Regressions(); len(regs) != 1 || regs[0].Key.String() != "PBREMSP/NLCD@4" {
		t.Fatalf("regressions = %+v, want exactly PBREMSP/NLCD@4", regs)
	}
	if len(d.Added) != 1 || d.Added[0].String() != "PBREMSP/NLCD@8" {
		t.Fatalf("added = %v, want [PBREMSP/NLCD@8]", d.Added)
	}
}

func TestDiffReportsPolicy(t *testing.T) {
	base := report(
		row("BREMSP", "Aerial", 1000),
		row("ARemSP", "Aerial", 1000),
		trow("PBREMSP", "NLCD", 4, 1000),
	)
	cur := report(
		row("BREMSP", "Aerial", 1400),    // +40%: over default 0.25, under override 0.5
		row("ARemSP", "Aerial", 1400),    // +40%: allowlisted
		trow("PBREMSP", "NLCD", 4, 1400), // +40%: gating
	)
	policy := &experiments.Policy{
		DefaultTolerance: 0.25,
		Overrides:        map[string]float64{"BREMSP/Aerial": 0.5},
		Allow:            []string{"ARemSP/Aerial"},
	}
	d := experiments.DiffReports(base, cur, 0.25, policy)
	regs := d.Regressions()
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2 (allowlisted + gating)", regs)
	}
	gating := d.Gating()
	if len(gating) != 1 || gating[0].Key.String() != "PBREMSP/NLCD@4" {
		t.Fatalf("gating = %+v, want exactly PBREMSP/NLCD@4", gating)
	}
	var sawAllowed bool
	for _, r := range regs {
		if r.Key.String() == "ARemSP/Aerial" {
			if !r.Allowed {
				t.Fatalf("ARemSP/Aerial should be allowlisted: %+v", r)
			}
			sawAllowed = true
		}
	}
	if !sawAllowed {
		t.Fatal("allowlisted regression missing from report")
	}
}

func TestReadPolicy(t *testing.T) {
	p, err := experiments.ReadPolicy(strings.NewReader(
		`{"default_tolerance": 0.3, "overrides": {"BREMSP/NLCD@4": 0.5}, "allow": ["ARun/Misc"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.DefaultTolerance != 0.3 || p.Overrides["BREMSP/NLCD@4"] != 0.5 || p.Allow[0] != "ARun/Misc" {
		t.Fatalf("policy = %+v", p)
	}
	for _, bad := range []string{
		`{"default_tolerance": -1}`,
		`{"overrides": {"X/Y": 0}}`,
		`{"unknown_knob": 1}`,
		`{not json`,
	} {
		if _, err := experiments.ReadPolicy(strings.NewReader(bad)); err == nil {
			t.Fatalf("policy %q accepted", bad)
		}
	}
}

func TestReadBenchReportRejectsGarbage(t *testing.T) {
	if _, err := experiments.ReadBenchReport(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	if _, err := experiments.ReadBenchReport(strings.NewReader(`{"results":[]}`)); err == nil {
		t.Fatal("empty report accepted")
	}
}
