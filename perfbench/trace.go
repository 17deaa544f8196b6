package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function; nothing inside the program is instrumented. Spans of
// one request share Req; Parent is the enclosing span's ID (-1 for a
// root). Standalone and probe spans belong to no request (Req "").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is shared by the
// replay's client goroutines and the job-completion goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span and returns its ID.
func (r *recorder) open(req string, parent int, name string) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans) - 1
}

// close ends span id.
func (r *recorder) close(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do records f as span name.
func (r *recorder) do(req string, parent int, name string, f func()) {
	id := r.open(req, parent, name)
	f()
	r.close(id)
}

// phases adds a labeling's PhaseTimes as consecutive children of the
// engine span, laid out from its start.
func (r *recorder) phases(req string, engine int, scan, merge, flatten, relabel time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.spans[engine].Start
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"core.scan", scan}, {"core.merge", merge}, {"core.flatten", flatten}, {"core.relabel", relabel}} {
		r.spans = append(r.spans, span{ID: len(r.spans), Parent: engine, Req: req, Name: p.name, Start: at, End: at + int64(p.d)})
		at += int64(p.d)
	}
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations in ms of every span with the given name,
// request spans (on the request path) or standalone ones.
func (r *recorder) durations(name string, inRequest bool) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (s.Req != "") == inRequest {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// layerMedian is the median span of a layer, in ms: over the spans on
// the request path when the workload calls the layer there, otherwise over
// the standalone probe spans.
func (r *recorder) layerMedian(name string) float64 {
	if d := r.durations(name, true); len(d) > 0 {
		return median(d)
	}
	return median(r.durations(name, false))
}

// whereTimeGoes prints each layer's self time (its span minus the time its
// children cover) as a share of the summed request spans, then the
// standalone spans.
func (r *recorder) whereTimeGoes(w io.Writer, workload string) {
	children := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	type row struct {
		name  string
		calls int
		self  time.Duration
	}
	rows := map[string]*row{}
	var total time.Duration
	requests := 0
	standalone := map[string][]float64{}
	for _, s := range r.spans {
		if s.Req == "" {
			standalone[s.Name] = append(standalone[s.Name], ms(s.dur()))
			continue
		}
		if s.Parent < 0 {
			total += s.dur()
			requests++
		}
		rw := rows[s.Name]
		if rw == nil {
			rw = &row{name: s.Name}
			rows[s.Name] = rw
		}
		rw.calls++
		rw.self += s.dur() - children[s.ID]
	}
	list := make([]*row, 0, len(rows))
	for _, rw := range rows {
		list = append(list, rw)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "where the time goes (%s, traced replay: %d requests, %.1f ms per request)\n",
		workload, requests, ms(total)/float64(max(requests, 1)))
	fmt.Fprintf(w, "  %-22s %8s %12s %10s\n", "layer (self time)", "calls", "ms/request", "share")
	for _, rw := range list {
		fmt.Fprintf(w, "  %-22s %8d %12.3f %9.1f%%\n", rw.name, rw.calls,
			ms(rw.self)/float64(max(requests, 1)), 100*float64(rw.self)/float64(max(total, 1)))
	}
	names := make([]string, 0, len(standalone))
	for n := range standalone {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  standalone spans (outside requests): %-8s %12s\n", "calls", "median ms")
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %8d %12.3f\n", n, len(standalone[n]), median(standalone[n]))
	}
}
