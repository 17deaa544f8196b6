// Command ccserve runs the HTTP connected-component labeling service.
//
// Usage:
//
//	ccserve [-addr :8377] [-workers 0] [-queue 0] [-threads 0]
//	        [-max-bytes 67108864] [-level 0.5] [-alg paremsp]
//	        [-jobs] [-job-ttl 15m] [-job-max-bytes 0]
//	        [-job-store memory|disk] [-job-dir ""]
//	        [-log-level info] [-log-format text] [-debug-addr ""]
//
// The server labels images POSTed to /v1/label (PBM/PGM/PNG body; the
// response format follows the Accept header: JSON component statistics,
// a PGM or PNG label map, or a CCL1 label stream) on a bounded worker
// pool, answering 429 with a latency-derived Retry-After when the queue
// is full. ?mode=gray labels gray levels directly (exact-value
// components; ?mode=gray-delta&delta=N for tolerance-N components) and
// ?contours=true adds each component's boundary polyline to the JSON
// response. POST /v1/stats streams raw PBM/PGM through the out-of-core
// band labeler and returns component statistics. POST /v1/volume labels a
// stack of concatenated raw-PGM frames as one 26-connected 3-D volume.
// Every /v1/* error is a JSON envelope {"error":{"code","message"}}.
//
// A labeling that does not pin ?threads= runs on every CPU idle when a
// worker dequeues it, and on at least one: the engine keeps a budget of
// GOMAXPROCS CPU tokens, lends a labeling every free one and takes them
// back when it finishes. A lone request thus splits across all cores, the
// paper's strong scaling, while a fully busy pool gives each labeling
// about one. -threads N pins every unpinned labeling at N threads instead;
// a pinned count runs as asked. A labeler that never splits its raster
// (aremsp, cclremsp, bremsp, the baselines, gray-delta) holds one token
// either way. The count a labeling ran with is logged as threads and shown
// in its /debug/requests trace and job status trace.
//
// POST /v1/jobs is the asynchronous job API (disable with -jobs=false):
// a single payload or a multipart/form-data batch is accepted with 202
// and labeled in the background; poll GET /v1/jobs/{id}, fetch
// GET /v1/jobs/{id}/result, and DELETE /v1/jobs/{id} when done. ?kind=
// selects the workload (labels, stats, contours, gray, volume). Identical
// submissions (same bytes, kind, mode, algorithm, connectivity, level and
// delta) deduplicate to the same job, and finished results are retained
// for -job-ttl before a background sweeper evicts them; total retained
// result memory is capped at -job-max-bytes (default 512 MiB), evicting
// oldest results first beyond it. -job-store=disk with -job-dir makes the
// store durable: finished results survive a restart byte-identical and
// interrupted jobs are re-run, and overflow spills results to disk
// instead of evicting them. -job-store=sqlite is the disk store's
// deprecated former name.
//
// /healthz is a liveness probe and /metrics exposes request counters,
// latency and per-phase histograms and job-state gauges in Prometheus
// text format. SIGINT or SIGTERM triggers a graceful shutdown.
//
// Observability: every request is tagged with an X-Request-ID (an inbound
// header is honored and echoed, otherwise one is generated), /v1/label
// responses carry a Server-Timing header with per-phase durations, and
// structured logs — access lines, job lifecycle events, startup and
// shutdown progress — go to stderr at -log-level in -log-format (text or
// json). -debug-addr starts a second, operator-only listener serving
// /debug/pprof/ profiles and /debug/requests, a JSON dump of the most
// recent per-request phase traces (filter with ?id=<request id>, bound
// with ?n=). Keep -debug-addr on loopback or an internal network.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.CCServe(os.Args[1:], os.Stdout, os.Stderr))
}
