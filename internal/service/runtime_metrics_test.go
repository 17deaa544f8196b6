package service

import (
	"bytes"
	"context"
	"math"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"

	paremsp "repro"
)

func TestWriteRuntimeHistogram(t *testing.T) {
	// Runtime layout: open lower edge, two finite buckets (one empty), open
	// upper edge with hits.
	h := &rtmetrics.Float64Histogram{
		Counts:  []uint64{2, 3, 0, 1},
		Buckets: []float64{math.Inf(-1), 1e-6, 1e-5, 1e-4, math.Inf(1)},
	}
	var buf bytes.Buffer
	pw := &promWriter{w: &buf}
	if pw.runtimeHist("test_seconds", "help.", h); pw.err != nil {
		t.Fatal(pw.err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP ccserve_test_seconds help.\n",
		"# TYPE ccserve_test_seconds histogram\n",
		`ccserve_test_seconds_bucket{le="1e-06"} 2` + "\n",
		`ccserve_test_seconds_bucket{le="1e-05"} 5` + "\n",
		`ccserve_test_seconds_bucket{le="+Inf"} 6` + "\n",
		"ccserve_test_seconds_count 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The empty 1e-05..1e-04 bucket is elided, and the open-ended top bucket
	// appears only as +Inf.
	if strings.Contains(out, `le="0.0001"`) {
		t.Fatalf("empty bucket not elided:\n%s", out)
	}
	if strings.Count(out, `le="+Inf"`) != 1 {
		t.Fatalf("+Inf emitted more than once:\n%s", out)
	}
	// Midpoint sum: 2·(1e-6) [open low edge → finite edge] + 3·(5.5e-6) +
	// 1·(1e-4) [open high edge → finite edge]; prefix match tolerates float
	// accumulation dust.
	if !strings.Contains(out, "ccserve_test_seconds_sum 0.0001185") {
		t.Fatalf("approximate sum wrong:\n%s", out)
	}
}

func TestWriteRuntimeMetricsLive(t *testing.T) {
	var buf bytes.Buffer
	pw := &promWriter{w: &buf}
	if writeRuntimeMetrics(pw); pw.err != nil {
		t.Fatal(pw.err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ccserve_go_goroutines gauge",
		"# TYPE ccserve_go_heap_objects_bytes gauge",
		"# TYPE ccserve_go_gc_pause_seconds histogram",
		"ccserve_go_gc_pause_seconds_count ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotPoolsAndBusy drives real labelings through the engine and
// checks the pool census and worker-busy accounting that feed /metrics.
func TestSnapshotPoolsAndBusy(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	defer eng.Close()
	for i := 0; i < 3; i++ {
		img := eng.GetImage()
		*img = paremsp.Image{Width: 4, Height: 4, Pix: make([]uint8, 16)}
		img.Pix[5] = 1
		res, err := eng.Label(context.Background(), img, paremsp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng.PutResult(res)
	}
	s := eng.Snapshot()
	byName := map[string]PoolSnapshot{}
	for _, p := range s.Pools {
		byName[p.Name] = p
	}
	for _, name := range []string{"image", "labelmap", "scratch"} {
		p := byName[name]
		if p.Gets != 3 {
			t.Errorf("pool %s gets = %d, want 3", name, p.Gets)
		}
		if p.Misses < 1 || p.Misses > p.Gets {
			t.Errorf("pool %s misses = %d, want within [1, %d]", name, p.Misses, p.Gets)
		}
	}
	// No exact reuse assertion: sync.Pool may drop items at will (the race
	// detector does so deliberately), so only the gets/misses bounds above
	// are contractual.
	if p := byName["bitmap"]; p.Gets != 0 || p.Misses != 0 {
		t.Errorf("bitmap pool touched without bitmap traffic: %+v", p)
	}
	if s.BusyNs <= 0 {
		t.Errorf("worker busy ns = %d, want > 0", s.BusyNs)
	}
	if job := eng.metrics.jobHist.sum.Load(); s.BusyNs < job {
		t.Errorf("busy ns %d < raster job ns %d: busy must cover every job", s.BusyNs, job)
	}
}
