package harness_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

func sample(ds ...time.Duration) harness.Sample {
	return harness.Sample{Runs: ds}
}

func TestSampleStatistics(t *testing.T) {
	s := sample(4*time.Millisecond, 1*time.Millisecond, 3*time.Millisecond, 2*time.Millisecond)
	if s.Mean() != 2500*time.Microsecond {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s harness.Sample
	if s.Mean() != 0 {
		t.Fatal("empty sample statistics must be zero")
	}
}

func TestMeasureCountsAndWarmup(t *testing.T) {
	calls := 0
	s := harness.Measure(5, 2, func() { calls++ })
	if calls != 7 {
		t.Fatalf("f called %d times, want 7 (5 timed + 2 warmup)", calls)
	}
	if len(s.Runs) != 5 {
		t.Fatalf("recorded %d runs, want 5", len(s.Runs))
	}
}

func TestAggregate(t *testing.T) {
	agg := harness.Aggregate([]harness.Sample{
		sample(2 * time.Millisecond),                   // mean 2ms
		sample(4*time.Millisecond, 6*time.Millisecond), // mean 5ms
		sample(10 * time.Millisecond),                  // mean 10ms
	})
	if agg.Min != 2*time.Millisecond || agg.Max != 10*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", agg.Min, agg.Max)
	}
	if agg.Avg != 5666666*time.Nanosecond {
		t.Fatalf("Avg = %v", agg.Avg)
	}
	if (harness.Aggregate(nil) != harness.MinAvgMax{}) {
		t.Fatal("empty aggregate must be zero")
	}
}

func TestMsec(t *testing.T) {
	if got := harness.Msec(1234567 * time.Nanosecond); got != "1.23" {
		t.Fatalf("Msec = %q, want 1.23", got)
	}
}

func TestSpeedup(t *testing.T) {
	if s := harness.Speedup(10*time.Second, 2*time.Second); s != 5 {
		t.Fatalf("Speedup = %v, want 5", s)
	}
	if s := harness.Speedup(time.Second, 0); s != 0 {
		t.Fatalf("Speedup with zero denominator = %v, want 0", s)
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
