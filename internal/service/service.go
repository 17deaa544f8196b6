// Package service is the operational layer around the labeling algorithms:
// a long-lived Engine that runs every labeling — binary, bit-packed, gray,
// volume and the out-of-core band stream — on one bounded worker pool with
// a request queue, backpressure and counting buffer pools, plus an
// http.Handler exposing it as a labeling service.
//
// Each workload is the paper's single two-pass pipeline, so the service has
// one path for all of them. A synchronous request is an async job without
// the store: the query string parses into a job kind plus the journaled
// jobs.Params; one decode reads the body into a pooled input and wraps it
// in an engine task; the task runs through the one queue and worker loop,
// which contain panics and keep the counters; one finish turns the outcome
// into a jobs.Result; and one renderer writes it. POST /v1/label,
// /v1/stats, /v1/volume, fresh and recovered async jobs and
// GET /v1/jobs/{id}/result all share these stages.
//
// The engine admits at most Workers in-flight labelings plus QueueDepth
// queued ones; beyond that, admission fails fast with ErrQueueFull so
// callers (and the HTTP layer, which maps it to 429) shed load instead of
// queuing unboundedly. Inputs, label maps and union-find scratch flow
// through pools, so sustained traffic does not re-allocate per request: a
// request borrows an input from its pool, decodes into it, labels into a
// pooled label map via the buffer-reusing *Into entry points, and returns
// both when the response has been written. Library callers drive the same
// path through Label, LabelGray, LabelVolume and Stats, or their Submit
// forms, which return a Submitted handle to Wait on.
//
// The HTTP surface is:
//
//	POST /v1/label   body = PBM/PGM (Netpbm) or PNG, negotiated via
//	                 Content-Type (sniffed when absent); query parameters
//	                 alg, threads, conn, level, mode, delta, contours,
//	                 components select per-request options. The response
//	                 format follows Accept: JSON component stats (default),
//	                 a PGM or PNG label map, or a CCL1 label stream
//	                 (application/x-ccl).
//	POST /v1/stats   body = raw PBM (P4) or raw PGM (P5), streamed through
//	                 the out-of-core band labeler (internal/band) on the
//	                 same worker pool: arbitrarily tall images are labeled
//	                 in O(band) memory and only JSON component statistics
//	                 (area, bbox, centroid, run count) come back. Query
//	                 parameters: level, band (band height in rows).
//	POST /v1/volume  body = concatenated raw-PGM z-slices, labeled as one
//	                 26-connected volume; JSON component summary.
//	POST /v1/jobs    the same workloads as async jobs (see jobs_http.go).
//	GET  /healthz    liveness probe.
//	GET  /metrics    Prometheus-style text: requests, completions,
//	                 rejections, queue depth, cumulative per-phase
//	                 scan/merge/flatten/relabel nanoseconds, and log₂-bucket
//	                 latency histograms (per-endpoint request duration,
//	                 queue wait, job service time, per-phase durations)
//	                 with approximate p50/p95/p99 gauges.
//
// # Observability
//
// Every request is wrapped by Obs middleware: the X-Request-ID header is
// honored when present (generated otherwise) and echoed on the response;
// end-to-end latency lands in a lock-free per-endpoint histogram; and a
// per-request Trace — queue wait, decode, scan, merge, flatten, relabel,
// encode — is captured into a fixed-size ring buffer. Synchronous responses
// carry the trace live as a Server-Timing header; async job status bodies
// embed a trace derived from the store's transition timestamps. The
// instrumentation is allocation-free on the hot path (pooled request
// state, atomic histogram adds, in-place ring copies).
//
// NewDebugHandler serves the operator-only surface — net/http/pprof under
// /debug/pprof/ and the trace-ring dump under GET /debug/requests?n=50
// (filter one request with ?id=) — as a separate handler so deployments
// bind it to a loopback listener (ccserve -debug-addr), never the public
// address. Structured logs (access lines, job lifecycle) flow through the
// slog.Logger given to NewObs; a nil logger disables logging without
// disabling the histograms or the trace ring.
package service
