package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// Endpoint indices for the per-endpoint request-latency histograms. The
// set is closed — the mux's route table is fixed — so the histograms live
// in a flat array and classification is a switch, not a map lookup.
const (
	epLabel = iota
	epStats
	epVolume
	epJobsSubmit
	epJobStatus
	epJobResult
	epJobDelete
	epHealthz
	epMetrics
	epOther
	epCount
)

// epNames maps endpoint indices to the `endpoint` label values on
// ccserve_http_request_duration_ns.
var epNames = [epCount]string{
	"label", "stats", "volume", "jobs_submit", "job_status", "job_result",
	"job_delete", "healthz", "metrics", "other",
}

// endpointOf classifies a served request by the ServeMux pattern that
// matched it (available on the request after dispatch, Go 1.23+).
func endpointOf(pattern string) int {
	switch pattern {
	case "POST /v1/label":
		return epLabel
	case "POST /v1/stats":
		return epStats
	case "POST /v1/volume":
		return epVolume
	case "POST /v1/jobs":
		return epJobsSubmit
	case "GET /v1/jobs/{id}":
		return epJobStatus
	case "GET /v1/jobs/{id}/result":
		return epJobResult
	case "DELETE /v1/jobs/{id}":
		return epJobDelete
	case "GET /healthz":
		return epHealthz
	case "GET /metrics":
		return epMetrics
	default:
		return epOther
	}
}

// Obs is the service's observability state: the structured logger, the
// per-endpoint latency histograms, and the ring buffer of per-request
// phase traces. One Obs is shared between the public handler (which feeds
// it) and the debug handler (which dumps it); NewHandler creates a silent
// one when the caller does not supply its own.
type Obs struct {
	log   *slog.Logger
	ring  *traceRing
	req   [epCount]hist
	state sync.Pool // *reqState
}

// NewObs builds the observability state. logger nil disables logging (the
// histograms and trace ring still work); traceDepth is the trace ring size
// (rounded up to a power of two, 0 selects 256).
func NewObs(logger *slog.Logger, traceDepth int) *Obs {
	if logger == nil {
		logger = slog.New(noopLogHandler{})
	}
	o := &Obs{log: logger, ring: newTraceRing(traceDepth)}
	o.state.New = func() any { return new(reqState) }
	return o
}

// Logger returns the Obs's structured logger (never nil).
func (o *Obs) Logger() *slog.Logger { return o.log }

// DumpTraces returns up to n most recent request traces, newest first.
func (o *Obs) DumpTraces(n int) []Trace { return o.ring.dump(n, "") }

// noopLogHandler is the disabled slog backend behind NewObs(nil, ...).
// (slog.DiscardHandler needs Go 1.24; this module still builds on 1.23.)
type noopLogHandler struct{}

func (noopLogHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopLogHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopLogHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopLogHandler{} }
func (noopLogHandler) WithGroup(string) slog.Handler             { return noopLogHandler{} }

// reqState is the pooled per-request scratch: the trace record plus the
// status/byte-counting response writer, recycled so the middleware adds no
// steady-state allocations beyond the context value.
type reqState struct {
	tr Trace
	rw countingWriter
}

// countingWriter wraps the ResponseWriter to capture the status code and
// body bytes for the access log and the trace record.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// flushes and deadlines pass through the wrapper.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// headerRequestID is the request-ID header the service honors and echoes.
const headerRequestID = "X-Request-ID"

// genRequestID mints a 16-hex-character request ID for requests that
// arrive without one. math/rand/v2's global state is cheap, concurrency
// safe, and plenty for trace correlation (this is not a security token).
func genRequestID() string {
	var b [8]byte
	u := rand.Uint64()
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// middleware wraps the service mux with the request-scoped observability:
// it assigns (or honors) the request ID and echoes it on the response,
// parks a Trace in the context for the handlers to fill, and — once the
// handler returns — observes the end-to-end latency histogram for the
// matched endpoint, pushes the trace into the ring, and emits the access
// log line. Probe and scrape endpoints log at Debug so a tight scrape
// interval does not drown real traffic in the log.
func (o *Obs) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(headerRequestID)
		if id == "" {
			id = genRequestID()
		}
		w.Header().Set(headerRequestID, id)

		st := o.state.Get().(*reqState)
		st.tr = Trace{ID: id, Method: r.Method, Path: r.URL.Path, Start: start}
		st.rw = countingWriter{ResponseWriter: w}

		// The mux stamps the matched pattern on the request it serves, so
		// keep the context-carrying copy to read r2.Pattern afterwards.
		r2 := r.WithContext(context.WithValue(r.Context(), traceKey{}, &st.tr))
		next.ServeHTTP(&st.rw, r2)

		ep := endpointOf(r2.Pattern)
		total := time.Since(start)
		st.tr.Endpoint = epNames[ep]
		st.tr.Status = st.rw.status
		st.tr.Bytes = st.rw.bytes
		st.tr.TotalNs = total.Nanoseconds()
		o.req[ep].observe(st.tr.TotalNs)
		o.ring.put(&st.tr)

		level := slog.LevelInfo
		if ep == epHealthz || ep == epMetrics {
			level = slog.LevelDebug
		}
		if o.log.Enabled(r.Context(), level) {
			attrs := make([]slog.Attr, 0, 8)
			attrs = append(attrs,
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", st.rw.status),
				slog.Int64("bytes", st.rw.bytes),
				slog.Duration("duration", total),
			)
			if st.tr.Alg != "" {
				attrs = append(attrs, slog.String("alg", st.tr.Alg))
			}
			if st.tr.Pixels > 0 {
				attrs = append(attrs, slog.Int64("pixels", st.tr.Pixels))
			}
			if st.tr.Threads > 0 {
				attrs = append(attrs, slog.Int("threads", st.tr.Threads))
			}
			o.log.LogAttrs(r.Context(), level, "request", attrs...)
		}
		st.rw.ResponseWriter = nil
		o.state.Put(st)
	})
}

// writeRequestHists renders the per-endpoint latency histogram family.
func (o *Obs) writeRequestHists(w io.Writer) {
	series := make([]histSeries, 0, epCount)
	for i := range o.req {
		series = append(series, histSeries{labels: `endpoint="` + epNames[i] + `"`, h: &o.req[i]})
	}
	writePromHist(w, "http_request_duration_ns",
		"End-to-end request latency per endpoint in nanoseconds (log2 buckets).", series)
}

// NewDebugHandler serves the operator-only debug surface: the net/http/pprof
// profiling endpoints under /debug/pprof/ and the trace-ring dump under
// GET /debug/requests. It is deliberately a separate handler from
// NewHandler so deployments bind it to a loopback/ops listener (ccserve
// -debug-addr) and never expose it on the public address.
func NewDebugHandler(obs *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/requests", obs.debugRequests)
	return mux
}

// debugRequests handles GET /debug/requests?n=50[&id=...]: the most recent
// request traces, newest first, as a JSON array. ?id= filters to one
// request ID, which is how "where did that slow request spend its time"
// gets answered after the fact.
func (o *Obs) debugRequests(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			http.Error(w, "invalid n (want a positive integer)", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	w.Header().Set("Content-Type", ctJSON)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(o.ring.dump(n, r.URL.Query().Get("id")))
}
