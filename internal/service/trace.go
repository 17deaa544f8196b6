package service

import (
	"context"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is the span-like timing record of one HTTP request: where its wall
// time went, layer by layer (decode, queue wait, the labeling phases, the
// component summaries, contour tracing, encode), the thread count the
// labeling ran with, plus enough request identity (ID, endpoint,
// algorithm, status) to find it again. Every request gets one; finished
// traces are copied into a fixed-size ring buffer served by GET
// /debug/requests for tail-latency forensics, the layers up to encode are
// surfaced live as the Server-Timing header on synchronous responses, and
// every layer is on the access line.
//
// A Trace is written only by the goroutine serving its request (the engine
// reports queue wait through the job result, not by touching the Trace), so
// the record needs no internal locking and recycles through a pool without
// racing canceled workers.
type Trace struct {
	Seq       uint64    `json:"seq"`
	ID        string    `json:"id"`
	Method    string    `json:"method"`
	Path      string    `json:"path"`
	Endpoint  string    `json:"endpoint"`
	Alg       string    `json:"alg,omitempty"`
	Status    int       `json:"status"`
	Bytes     int64     `json:"bytes"`
	Pixels    int64     `json:"pixels,omitempty"`
	Threads   int       `json:"threads,omitempty"`
	Start     time.Time `json:"start"`
	QueueNs   int64     `json:"queue_wait_ns"`
	DecodeNs  int64     `json:"decode_ns"`
	ScanNs    int64     `json:"scan_ns"`
	MergeNs   int64     `json:"merge_ns"`
	FlattenNs int64     `json:"flatten_ns"`
	RelabelNs int64     `json:"relabel_ns"`
	// ComponentsNs and ContoursNs time the response shaping: the component
	// statistics (the run kernel's fold over its runs, or a pass over the
	// label map after the labeling) or volume sizes, and the contours.
	ComponentsNs int64 `json:"components_ns"`
	ContoursNs   int64 `json:"contours_ns"`
	EncodeNs     int64 `json:"encode_ns"`
	TotalNs      int64 `json:"total_ns"`
}

// setPhases copies a labeling's phase durations into the trace.
func (t *Trace) setPhases(scan, merge, flatten, relabel time.Duration) {
	t.ScanNs = scan.Nanoseconds()
	t.MergeNs = merge.Nanoseconds()
	t.FlattenNs = flatten.Nanoseconds()
	t.RelabelNs = relabel.Nanoseconds()
}

// layerAttrs appends the trace's nonzero layer times to an access line's
// attributes, under their JSON names, so the log alone is a per-request
// record of where the time went.
func (t *Trace) layerAttrs(attrs []slog.Attr) []slog.Attr {
	for _, l := range [...]struct {
		key string
		ns  int64
	}{
		{"decode_ns", t.DecodeNs}, {"queue_wait_ns", t.QueueNs},
		{"scan_ns", t.ScanNs}, {"merge_ns", t.MergeNs}, {"flatten_ns", t.FlattenNs}, {"relabel_ns", t.RelabelNs},
		{"components_ns", t.ComponentsNs}, {"contours_ns", t.ContoursNs}, {"encode_ns", t.EncodeNs},
	} {
		if l.ns > 0 {
			attrs = append(attrs, slog.Int64(l.key, l.ns))
		}
	}
	return attrs
}

// traceKey is the context key under which the middleware parks the
// request's *Trace for the handlers (and the engine submit path) to fill.
type traceKey struct{}

// traceFrom returns the request-scoped trace, nil outside the middleware
// (library callers driving the Engine directly, async jobs running under
// the background context).
func traceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// traceRing is the fixed-size ring the finished traces land in. Writers
// claim a slot with one atomic increment and copy the record under that
// slot's mutex; slot mutexes are uncontended unless the ring wraps faster
// than a reader copies one slot, so capture stays cheap under load and
// never allocates.
type traceRing struct {
	next  atomic.Uint64
	slots []traceSlot
}

type traceSlot struct {
	mu  sync.Mutex
	rec Trace
}

// newTraceRing builds a ring with n slots (rounded up to a power of two so
// slot selection is a mask; n <= 0 selects 256).
func newTraceRing(n int) *traceRing {
	if n <= 0 {
		n = 256
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &traceRing{slots: make([]traceSlot, size)}
}

// put copies rec into the next slot, stamping its sequence number.
func (r *traceRing) put(rec *Trace) {
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)&uint64(len(r.slots)-1)]
	s.mu.Lock()
	s.rec = *rec
	s.rec.Seq = seq
	s.mu.Unlock()
}

// dump returns up to n most recent traces, newest first; a non-empty id
// keeps only records with that request ID. The copy allocates, which is
// fine — this is the debug path, not the request path.
func (r *traceRing) dump(n int, id string) []Trace {
	if n <= 0 || n > len(r.slots) {
		n = len(r.slots)
	}
	newest := r.next.Load()
	out := make([]Trace, 0, n)
	for i := uint64(0); i < uint64(len(r.slots)) && len(out) < n; i++ {
		seq := newest - i
		if seq == 0 {
			break
		}
		s := &r.slots[(seq-1)&uint64(len(r.slots)-1)]
		s.mu.Lock()
		rec := s.rec
		s.mu.Unlock()
		// A slot overwritten by a racing writer carries a newer sequence
		// than the one this walk expected; skip it rather than report a
		// duplicate out of order.
		if rec.Seq != seq {
			continue
		}
		if id != "" && rec.ID != id {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// appendServerTiming renders the trace's layers as a Server-Timing header
// value (durations in milliseconds, per the spec) into b. total is the
// request's elapsed time at header-write time; encode cannot appear — it
// happens after the headers are on the wire — and lives only in the ring
// record and the access line.
func appendServerTiming(b []byte, t *Trace, total time.Duration) []byte {
	b = appendTimingEntry(b, "queue_wait", t.QueueNs)
	b = appendTimingEntry(b, "decode", t.DecodeNs)
	b = appendTimingEntry(b, "scan", t.ScanNs)
	b = appendTimingEntry(b, "merge", t.MergeNs)
	b = appendTimingEntry(b, "flatten", t.FlattenNs)
	b = appendTimingEntry(b, "relabel", t.RelabelNs)
	b = appendTimingEntry(b, "components", t.ComponentsNs)
	b = appendTimingEntry(b, "contours", t.ContoursNs)
	b = appendTimingEntry(b, "total", total.Nanoseconds())
	return b
}

// appendTimingEntry appends `name;dur=1.234` (ns rendered as ms), comma
// separated after the first entry.
func appendTimingEntry(b []byte, name string, ns int64) []byte {
	if len(b) > 0 {
		b = append(b, ", "...)
	}
	b = append(b, name...)
	b = append(b, ";dur="...)
	return strconv.AppendFloat(b, float64(ns)/1e6, 'f', 3, 64)
}
