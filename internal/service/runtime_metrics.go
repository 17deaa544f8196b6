package service

import (
	"math"
	rtmetrics "runtime/metrics"
	"strconv"
)

// Runtime gauge metrics sampled from runtime/metrics on every scrape: the
// names here are the stable runtime/metrics identifiers, the exposition
// names the ccserve_go_* families they render as.
var runtimeGauges = []struct {
	sample     string
	name, help string
}{
	{"/sched/goroutines:goroutines", "go_goroutines",
		"Live goroutines (runtime/metrics /sched/goroutines)."},
	{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes",
		"Bytes occupied by live heap objects plus unswept dead ones (runtime/metrics /memory/classes/heap/objects)."},
	{"/gc/heap/goal:bytes", "go_gc_heap_goal_bytes",
		"Heap size target of the next GC cycle (runtime/metrics /gc/heap/goal)."},
}

// runtimePauseSample is the GC stop-the-world pause distribution.
const runtimePauseSample = "/sched/pauses/total/gc:seconds"

// writeRuntimeMetrics writes the Go runtime's own health gauges — goroutine
// count, heap bytes, GC heap goal, and the GC pause histogram. Sampling is
// done per scrape (runtime/metrics reads are cheap and lock-free); metrics
// the running toolchain does not export are skipped rather than rendered
// as zero.
func writeRuntimeMetrics(pw *promWriter) {
	samples := make([]rtmetrics.Sample, 0, len(runtimeGauges)+1)
	for _, g := range runtimeGauges {
		samples = append(samples, rtmetrics.Sample{Name: g.sample})
	}
	samples = append(samples, rtmetrics.Sample{Name: runtimePauseSample})
	rtmetrics.Read(samples)

	for i, g := range runtimeGauges {
		var v int64
		switch samples[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v = int64(samples[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v = int64(samples[i].Value.Float64())
		default:
			continue
		}
		pw.metrics([]promMetric{{"gauge", g.name, g.help, v}})
	}
	pauses := samples[len(samples)-1]
	if pauses.Value.Kind() == rtmetrics.KindFloat64Histogram {
		pw.runtimeHist("go_gc_pause_seconds",
			"Distribution of individual GC stop-the-world pause latencies in seconds (runtime/metrics "+runtimePauseSample+").",
			pauses.Value.Float64Histogram())
	}
}

// runtimeHist writes a runtime/metrics Float64Histogram as a Prometheus
// histogram: cumulative bucket counts with le taken from the runtime's
// bucket upper bounds, eliding buckets that add nothing so the runtime's
// ~100-bucket layout does not bloat every scrape. The runtime does not
// track an exact sum, so _sum is approximated from bucket midpoints
// (infinite edges fall back to the finite edge) — good enough for rate()
// dashboards, and the count/bucket lines stay exact.
func (pw *promWriter) runtimeHist(name, help string, h *rtmetrics.Float64Histogram) {
	pw.family("histogram", name, help)
	var count uint64
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		count += c
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += mid * float64(c)
		if math.IsInf(hi, 1) {
			// The closing +Inf line below carries this bucket's count.
			continue
		}
		pw.printf("ccserve_%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(hi, 'g', -1, 64), count)
	}
	pw.printf("ccserve_%s_bucket{le=\"+Inf\"} %d\nccserve_%s_sum %g\nccserve_%s_count %d\n",
		name, count, name, sum, name, count)
}
