package harness_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

// The experiments renderers compute the statistics the paper reports from
// grid report rows; TestAggregate and TestSpeedup check them in the cells
// those renderers print with harness tables.

// TestAggregate checks Table II's per-class statistics: the minimum, mean
// and maximum over the class's images of each image's median time.
func TestAggregate(t *testing.T) {
	rep := &experiments.BenchReport{Scale: 1}
	for _, class := range experiments.ClassOrder {
		for _, alg := range experiments.Table2Algs {
			rep.Results = append(rep.Results, experiments.BenchResult{
				Algorithm: alg, Class: class, NsPerOp: 1, Images: []experiments.ImageResult{
					{Name: "a", NsPerOp: int64(5 * time.Millisecond)},
					{Name: "b", NsPerOp: int64(10 * time.Millisecond)},
					{Name: "c", NsPerOp: int64(2 * time.Millisecond)},
				}})
		}
	}
	var sb strings.Builder
	experiments.Table2(&sb, rep)
	for _, class := range experiments.ClassOrder {
		for _, want := range [][]string{
			{class, "Min", "2.00", "2.00", "2.00", "2.00"},
			{class, "Average", "5.67", "5.67", "5.67", "5.67"}, // 17 ms / 3
			{class, "Max", "10.00", "10.00", "10.00", "10.00"},
		} {
			if !hasRow(sb.String(), want) {
				t.Errorf("missing row %q in:\n%s", strings.Join(want, "  "), sb.String())
			}
		}
	}
}

// TestSpeedup checks Figure 4's speedups: sequential AREMSP's median time
// over PAREMSP's at each thread count, and 0 where PAREMSP's is 0.
func TestSpeedup(t *testing.T) {
	rep := &experiments.BenchReport{Scale: 1}
	last := len(experiments.Fig4Threads) - 1
	for _, class := range experiments.Fig4Classes {
		rep.Results = append(rep.Results, experiments.BenchResult{
			Algorithm: "ARemSP", Class: class, NsPerOp: int64(10 * time.Second)})
		for i, th := range experiments.Fig4Threads {
			ns := int64(2 * time.Second)
			if i == last {
				ns = 0
			}
			rep.Results = append(rep.Results, experiments.BenchResult{
				Algorithm: "PAREMSP", Class: class, Threads: th, NsPerOp: ns})
		}
	}
	var sb strings.Builder
	experiments.Fig4(&sb, rep)
	for _, class := range experiments.Fig4Classes {
		want := []string{class, "5.00", "5.00", "5.00", "5.00", "0.00"} // T=2, 6, 8, 16, 24
		if !hasRow(sb.String(), want) {
			t.Errorf("missing row %q in:\n%s", strings.Join(want, "  "), sb.String())
		}
	}
}

// hasRow reports whether some line of out consists of exactly the cells
// of row.
func hasRow(out string, row []string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.Join(strings.Fields(line), " ") == strings.Join(row, " ") {
			return true
		}
	}
	return false
}

func TestMsec(t *testing.T) {
	if got := harness.Msec(1234567 * time.Nanosecond); got != "1.23" {
		t.Fatalf("Msec = %q, want 1.23", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := harness.NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name ") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[1], "-----") {
		t.Fatalf("missing separator: %q", lines[1])
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := harness.NewTable("a", "b", "c")
	tb.AddRow("only")
	var sb strings.Builder
	tb.Render(&sb)
	if !strings.Contains(sb.String(), "only") {
		t.Fatal("short row lost")
	}
}

func TestEnvBanner(t *testing.T) {
	b := harness.EnvBanner()
	if !strings.Contains(b, "GOMAXPROCS") || !strings.Contains(b, "go1") {
		t.Fatalf("banner missing fields: %q", b)
	}
}
