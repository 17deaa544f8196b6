// Package paremsp is a Go implementation of the two-pass connected component
// labeling (CCL) algorithms of Gupta, Palsetia, Patwary, Agrawal and
// Choudhary, "A New Parallel Algorithm for Two-Pass Connected Component
// Labeling" (IPDPS Workshops 2014): the sequential algorithms CCLREMSP and
// AREMSP built on REM's union-find with splicing, and the portable
// shared-memory parallel algorithm PAREMSP, plus the baselines the paper
// compares against (CCLLRPC, ARUN, RUN, repeated-pass) and a reference
// flood-fill labeler.
//
// # Quick start
//
//	img := paremsp.NewImage(1024, 1024)
//	// ... set img.Pix: 1 = object pixel, 0 = background ...
//	res, err := paremsp.Label(img, paremsp.Options{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.NumComponents, "components")
//	for _, c := range paremsp.ComponentsOf(res.Labels) {
//		fmt.Printf("label %d: area %d, bbox %dx%d\n", c.Label, c.Area, c.Width(), c.Height())
//	}
//
// The default configuration runs PAREMSP across all available CPUs. Set
// Options.Algorithm to pick a specific algorithm and Options.Threads to pin
// the worker count; results are identical partitions for every algorithm
// (8-connectivity), with labels numbered consecutively from 1 in raster
// order of each component's smallest provisional label.
//
// Labeling follows the paper's conventions: binary images store one byte per
// pixel (1 = object, 0 = background), connectivity is 8-connectedness, and
// the result's label 0 means background.
//
// # Algorithms
//
//	paremsp    the paper's parallel algorithm (default); fastest on multi-core
//	aremsp     the paper's best sequential algorithm (pair-row scan + REMSP)
//	cclremsp   decision-tree scan + REMSP (the paper's second sequential)
//	bremsp     bit-packed run scan + REMSP (beyond the paper); fastest
//	           sequential on long-run/blobby rasters and raw-PBM input
//	pbremsp    parallel bremsp (PAREMSP's chunk/merge machinery at run
//	           granularity); fastest overall when input is already packed
//	ccllrpc    Wu-Otoo-Suzuki baseline (decision tree + rank/PC union-find)
//	arun, run  He-Chao-Suzuki rtable baselines
//	classic    Rosenfeld all-neighbor two-pass scan
//	multipass  repeated forward/backward propagation
//	suzuki     table-accelerated multi-pass
//	floodfill  explicit-stack reference labeler
//
// Every REMSP algorithm above — and the gray and volume modes below — is a
// kernel of one two-pass skeleton, the composition of the paper's Alg. 7:
// chunked scans over disjoint label ranges, seam merge, FLATTEN, relabel.
// A kernel supplies only its scan, seam-merge and relabel loops; AREMSP,
// CCLREMSP and BREMSP are the one-chunk case (AREMSP is PAREMSP on one
// thread, BREMSP is PBREMSP on one thread). Label numbering therefore does
// not depend on the thread count. Options.Threads = 0 means GOMAXPROCS
// chunks, capped at one chunk per scan unit (row pair, row, or plane pair).
//
// The bit-packed pair (AlgBREMSP, AlgPBREMSP) operates on a Bitmap — 1 bit
// per pixel, 64-bit words, rows padded to whole words — extracting foreground
// runs with math/bits and calling the union-find once per run instead of per
// pixel, then writing the final label map run-by-run. LabelBitmap /
// LabelBitmapInto accept the packed raster directly, and DecodePBMBitmap
// fills one from raw PBM (P4) without materializing a byte raster, since P4
// rows are already bit-packed.
//
// # Streaming and out-of-core statistics
//
// LabelStream labels rasters far larger than memory. The input — a raw PBM
// (P4) or raw PGM (P5) stream — is consumed as fixed-height row bands
// (StreamOptions.BandRows; default 256): each band is labeled with BREMSP's
// run scan in its own label space, consecutive bands are stitched by
// unioning the foreground runs of the two seam rows, and per-component
// statistics (area, bounding box, centroid, run count — see ComponentStats)
// accumulate run-by-run. No label raster is ever materialized, so peak
// memory is O(one band + its equivalence table + the component table),
// independent of image height: a 100k-row raster streams through the few
// megabytes a single band needs.
//
// Band-height guidance: larger bands amortize the per-band flatten and seam
// costs and are faster; smaller bands cap memory. The per-band working set
// is dominated by the equivalence tables at 8 bytes per potential run —
// about 4*width*rows bytes, plus width*rows/8 for the band bitmap and 12
// bytes per actual run — so the default of 256 rows costs ~17 MiB for a
// 16384-pixel-wide raster; at extreme widths shrink the band (a
// 2^20-pixel-wide raster needs rows <= 8 to stay near 32 MiB). Correctness
// is band-height-independent (the test suite checks heights 1, 2, 7, 64 and
// whole-image against in-memory labeling).
//
// cmd/ccstream wires LabelStream to disk, spilling provisional labels to a
// scratch file and rewriting them into a CCL1 label stream once the final
// numbering is known; the service's POST /v1/stats endpoint streams a
// (possibly chunked) upload through the same engine and returns JSON
// statistics.
//
// # Buffer reuse and the service layer
//
// LabelInto is Label writing into caller-provided buffers: a LabelMap
// (reshaped with Reset) and a Scratch holding the union-find equivalence
// arrays. Reusing both across calls makes sustained labeling with the
// paper's algorithms allocation-free, the regime a long-lived server needs.
// internal/service builds on it: an Engine runs every workload — binary,
// bit-packed, gray, volume and the band stream — as one kind of task on a
// bounded worker pool, with counting buffer pools and backpressure, and its
// HTTP handler (cmd/ccserve) serves POST /v1/label with JSON statistics,
// PGM/PNG label maps, or CCL1 label streams, plus /healthz and /metrics
// with the per-phase timings above as live counters. A synchronous request
// is an async job without the store: the sync endpoints, job submission,
// job recovery and the job result endpoint share one decode, one engine
// queue, one finish and one renderer. When the queue is full the service
// answers 429 with a Retry-After derived from the observed mean job latency
// and the current backlog. Threads are work-conserving: the Engine keeps a
// budget of GOMAXPROCS CPU tokens, and a labeling that pins no thread count
// is lent every token free when a worker dequeues it, at least one, until
// it finishes. A lone request therefore splits across every core, the
// paper's strong scaling, and a fully busy pool gives each labeling about
// one; a pinned count runs as asked.
//
// The service is fully instrumented: every request carries an X-Request-ID
// (inbound honored, otherwise generated, always echoed), synchronous
// responses report per-phase durations in a Server-Timing header, /metrics
// exposes lock-free log₂-bucket latency histograms (per-endpoint request
// duration, queue wait, worker service time, per-phase splits) alongside
// the counters, and recent per-request phase traces are retained in a ring
// buffer dumped by GET /debug/requests on the separate ccserve -debug-addr
// listener, which also serves net/http/pprof. Structured slog logging
// (access lines, job lifecycle events) is configured with ccserve
// -log-level and -log-format.
//
// # Asynchronous jobs
//
// The synchronous endpoints hold their HTTP connection for the whole
// computation; the job API (internal/jobs, enabled by default in ccserve,
// -jobs=false disables) decouples submission from retrieval. POST /v1/jobs
// accepts one image or a multipart/form-data batch and answers 202 with one
// job per image; jobs run in the background on the same engine pool and are
// observable as queued → running → done/failed/canceled via GET
// /v1/jobs/{id}, with
// results fetched from GET /v1/jobs/{id}/result (the /v1/label formats for
// the labels, gray and contours kinds; JSON only for stats and volume) and
// released early with DELETE /v1/jobs/{id}.
//
// A job's ID is the truncated (128-bit) SHA-256 of its request tuple —
// input bytes, output kind, mode (with delta for gray-delta), algorithm,
// connectivity and binarization level (JobKeyMode computes it,
// normalization included; JobKey is JobKeyMode in the kind's native mode) —
// so identical submissions deduplicate to the same job and its cached
// result instead of recomputing; failed and expired jobs are replaced on
// resubmission. Finished jobs are retained in a mutex-sharded store
// (JobStoreOptions: ccserve -job-ttl) until a background sweeper evicts
// them TTL after completion; retained result memory is
// additionally capped (-job-max-bytes, default 512 MiB) with oldest-first
// overflow eviction. Deleting a queued or running job cancels its
// computation, releasing the pool worker. The JobState and JobKind types
// name the wire states and kinds.
//
// # Job durability
//
// The job store has one design: sharded job metadata and a result-blob
// map. The default, ccserve -job-store=memory, is that store in process
// memory: fastest, nothing survives a restart, and -job-max-bytes overflow
// evicts the oldest finished jobs. -job-store=disk (with -job-dir) adds a
// journal and a directory: job metadata is journaled to a write-ahead log
// (a fsynced, crash-truncating JSONL journal) and result blobs plus
// pending inputs are written through to content-addressed files under
// -job-dir, so -job-max-bytes overflow spills result payloads to disk
// instead of evicting them. -job-store=sqlite is accepted as the disk
// store's deprecated former name, and -job-dir on a memory store is
// refused. The store directory is flock-ed exclusively while open: a
// second process on the same -job-dir fails fast rather than interleaving
// journal appends with the first.
//
// On startup with the durable backend, ccserve recovers before accepting
// traffic: finished jobs come back with their results fetchable
// byte-identical; jobs that were queued or running when the process died
// (SIGKILL included) are resubmitted through the normal admission path and
// run again; jobs whose persisted input is missing or whom the engine
// refuses land in the canceled terminal state with a "recovery:" reason —
// observable, and re-runnable by resubmitting. Metrics split the store's
// footprint (ccserve_jobs_store_mem_bytes / ccserve_jobs_store_disk_bytes)
// and count spills and recovery outcomes (ccserve_jobs_spilled_total,
// ccserve_jobs_recovered_total, ccserve_jobs_recovery_canceled_total);
// ccserve_jobs_journal_errors_total counts journal appends that failed to
// reach disk — the store keeps serving, but nonzero means restart recovery
// may lose or resurrect jobs, so alert on it.
//
// # Operational guarantees
//
// The service's request lifecycle is fault-tolerant end to end. Every
// algorithm has a context-aware entry point (LabelIntoCtx, LabelBitmapIntoCtx,
// StreamOptions.Ctx) that polls ctx.Done() once per 64-row block, cheap
// enough for the hot loops (the perf gate runs with the checks compiled in)
// and frequent enough to stop a canceled labeling within a few row-scans; a
// canceled call leaves its LabelMap/Scratch reusable, so pooled buffers
// survive cancellation. ccserve -request-timeout bounds synchronous requests
// (504 on expiry) and -job-timeout bounds async jobs (terminal state
// canceled, retryable on resubmission); both default to unbounded.
//
// A panic inside a labeling is contained by the worker's recover: the
// request fails (500) or the job fails, the stack goes to the structured
// log, ccserve_worker_panics_total counts it, the worker survives, and the
// buffers the panicking job was mutating are quarantined rather than
// returned to the pools. On SIGTERM/SIGINT ccserve drains: admission flips
// to 503 with Retry-After, /healthz reports 503 draining, queued jobs are
// canceled, running jobs get up to -drain-timeout (default 15s) before
// being force-canceled through their contexts, a drain summary is logged,
// and the process exits 0.
//
// internal/faultinject provides the failpoints (decode-error, worker-stall,
// worker-panic, encode-slow, queue-full; one atomic load when disarmed)
// behind the chaos suite in internal/service and the CCSERVE_FAULTS
// environment variable for manual drills.
//
// # Beyond the paper: gray, 3-D and contour modes
//
// The REMSP machinery generalizes past binary 2-D rasters, and the library
// exposes three extension workloads with the same Into/IntoCtx entry-point
// discipline as the core: LabelGray / LabelGrayDelta label 8-connected
// flat zones of a GrayImage (exact gray value, or values within delta;
// every pixel is labeled — there is no background), LabelVolume labels a
// 26-connected 3-D Volume of binary voxels, and TraceContours walks each
// component's outer boundary into a polyline. Options.Mode (ModeBinary,
// ModeGray, ModeGrayDelta, ModeVolume) names the workload when calling the
// unified entry points LabelGrayIntoCtx / LabelVolumeIntoCtx, which take
// caller-provided buffers and poll ctx like the binary pipeline.
//
// The gray and volume labelers are kernels of the same skeleton as PAREMSP:
// gray scans row pairs with a 2*width label budget per pair (every pixel
// may open a component), the volume scans z-plane pairs, and both merge
// seams with the paper's locked MERGER. AlgAREMSP selects their one-chunk
// case. The tolerance scan of ModeGrayDelta is not transitive, so it runs
// as a kernel that is never split. LabelGrayParallel and
// LabelVolumeParallel read threads = 0 as GOMAXPROCS, like Options.Threads.
//
// ccserve serves all three behind one request model. Every /v1/* endpoint
// parses ?alg, ?threads, ?conn, ?level, ?mode and ?delta through a single
// shared parser, so a bad parameter fails identically everywhere, as a
// JSON error envelope {"error":{"code","message"}} with a fixed code
// vocabulary (invalid_argument, unsupported_media_type, not_acceptable,
// payload_too_large, queue_full, unavailable, timeout, internal,
// not_found). The endpoint x mode matrix: POST /v1/label serves
// mode=binary (PBM/PGM/PNG in; JSON, PGM, PNG or CCL1 out) and
// mode=gray|gray-delta (P5/PNG in, same outputs), plus ?contours=true to
// attach boundary polylines to binary-mode JSON responses (the request
// then computes the contours job kind); POST /v1/volume takes
// concatenated raw-PGM z-slices and returns JSON only; POST /v1/stats is
// binary-only. Async jobs mirror the matrix via ?kind=
// (labels|stats|contours|gray|volume), keyed by JobKeyMode so the same
// bytes under different modes are distinct jobs while binary labels/stats
// IDs stay identical to earlier releases. The ?stats= query parameter was
// renamed ?components=; the old name is accepted for one release and
// logged at warn.
//
// # Reproducing the paper
//
// cmd/paperbench regenerates the evaluation section on synthetic
// surrogates of the paper's datasets: Tables II-IV, Figures 3-5 and a
// weak-scaling experiment directly (-exp), or the declarative experiment
// grid in experiments.json (-grid: algorithms x dataset classes x
// GOMAXPROCS values x repeats), which emits a self-describing JSON report
// with raw per-repeat samples and environment metadata. paperbench
// -analyze digests such a report into per-configuration medians with 95%
// confidence intervals, speedup-vs-threads curves against the best
// sequential baseline, and parallel-efficiency tables — the repo's
// analogue of the paper's scaling figures — and paperbench -diff gates a
// fresh run against a checked-in baseline report (BENCH_pr7.json) under
// the tolerances and allowlist in perf_policy.json. The nightly CI
// workflow runs the full grid as a gating job; per-PR CI runs a reduced,
// non-blocking smoke of the same grid.
package paremsp
