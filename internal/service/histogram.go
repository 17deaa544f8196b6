package service

import (
	"math/bits"
	"sync/atomic"
)

// hist is a lock-free latency histogram with log₂-spaced buckets: bucket i
// counts observations whose value has an i-bit binary representation, i.e.
// v in [2^(i-1), 2^i - 1] (bucket 0 holds exact zeros). Everything is an
// atomic add, so observe costs two uncontended atomic ops and never
// allocates — cheap enough for the engine's per-job hot path. The last
// bucket is the overflow catch-all, exposed only through the +Inf line of
// the Prometheus exposition, so finite bucket bounds never lie about
// values beyond them.
//
// Values are nanoseconds throughout the service; the highest finite bound
// (2^38 - 1 ns ≈ 4.6 min) comfortably covers any request the HTTP timeouts
// would let live.
type hist struct {
	sum     atomic.Int64
	buckets [histSlots]atomic.Int64
}

const (
	// histSlots is the bucket array size; the final slot is overflow.
	histSlots = 40
	// histFinite is the number of finite buckets (indices 0..histFinite-1);
	// observations needing more bits land in the overflow slot.
	histFinite = histSlots - 1
)

// bucketBound is bucket i's inclusive upper bound (2^i - 1; 0 for i = 0).
func bucketBound(i int) int64 { return int64(1)<<uint(i) - 1 }

// observe accounts one value. Negative values (a clock step) clamp to 0.
func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i > histFinite {
		i = histFinite
	}
	h.buckets[i].Add(1)
	h.sum.Add(ns)
}

// snapshot copies the buckets and derives the total count. The copy is not
// atomic across buckets — a scrape racing observes may see a count one off
// from sum — which Prometheus tolerates.
func (h *hist) snapshot() (b [histSlots]int64, count int64) {
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		count += b[i]
	}
	return b, count
}

// histSeries is one labeled series of a histogram family: labels is the
// rendered Prometheus label list without braces (e.g. `endpoint="label"`),
// empty for an unlabeled family.
type histSeries struct {
	labels string
	h      *hist
}

// hist writes one histogram family — HELP and TYPE once, then every
// series' cumulative buckets, sum and count. Empty trailing buckets are
// elided (the +Inf bucket carries the total regardless), keeping scrapes
// compact.
func (pw *promWriter) hist(name, help string, series []histSeries) {
	pw.family("histogram", name, help)
	for _, s := range series {
		b, count := s.h.snapshot()
		last := -1
		for i := 0; i < histFinite; i++ {
			if b[i] != 0 {
				last = i
			}
		}
		sep, curly := "", ""
		if s.labels != "" {
			sep, curly = ",", "{"+s.labels+"}"
		}
		var cum int64
		for i := 0; i <= last; i++ {
			cum += b[i]
			pw.printf("ccserve_%s_bucket{%s%sle=\"%d\"} %d\n", name, s.labels, sep, bucketBound(i), cum)
		}
		pw.printf("ccserve_%s_bucket{%s%sle=\"+Inf\"} %d\nccserve_%s_sum%s %d\nccserve_%s_count%s %d\n",
			name, s.labels, sep, count, name, curly, s.h.sum.Load(), name, curly, count)
	}
}
