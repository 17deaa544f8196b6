package service

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/jobs"
)

// Phase indices for the per-phase duration histograms: the labeling's four
// phases, then the two response-shaping layers that follow it.
const (
	phaseScan = iota
	phaseMerge
	phaseFlatten
	phaseRelabel
	phaseComponents
	phaseContours
	phaseCount
)

// phaseNames maps phase indices to the `phase` label values on
// ccserve_phase_duration_ns.
var phaseNames = [phaseCount]string{"scan", "merge", "flatten", "relabel", "components", "contours"}

// poolCount is the number of engine buffer pools (see Engine).
const poolCount = 7

// metrics is the engine's live counter set. Everything is atomic so the hot
// path never takes a lock to account a request; the histograms are atomic
// log₂-bucket arrays (see hist), so distribution tracking is equally
// lock- and allocation-free.
type metrics struct {
	requests   atomic.Int64 // Label calls, admitted or not
	completed  atomic.Int64 // successful labelings
	rejected   atomic.Int64 // ErrQueueFull + ErrClosed rejections
	errors     atomic.Int64 // failed labelings (bad options, canceled jobs)
	canceled   atomic.Int64 // callers that gave up waiting (ctx done)
	inFlight   atomic.Int64 // labelings running right now
	pixels     atomic.Int64 // pixels labeled, cumulative
	components atomic.Int64 // components found, cumulative
	busyNs     atomic.Int64 // cumulative wall time workers spent on jobs, every kind and outcome
	panics     atomic.Int64 // worker panics contained by recoverPanic

	labelings []atomic.Int64 // successful labelings, by the algNames index of the labeler that ran

	queueWaitHist hist             // enqueue → worker-dequeue wait, all jobs
	jobHist       hist             // worker service time, non-stream jobs (RetryAfter's mean)
	phaseHist     [phaseCount]hist // per-phase and per-shaping-layer durations
}

// PoolSnapshot is the reuse census of one of the engine's rasters/scratch
// sync.Pools: Gets is every borrow, Misses the borrows that had to allocate,
// so Gets − Misses is the hit count (GC-emptied pools show up as misses).
type PoolSnapshot struct {
	Name   string `json:"name"`
	Gets   int64  `json:"gets"`
	Misses int64  `json:"misses"`
}

// Snapshot is a point-in-time copy of the engine's counters.
type Snapshot struct {
	Requests   int64 `json:"requests"`
	Completed  int64 `json:"completed"`
	Rejected   int64 `json:"rejected"`
	Errors     int64 `json:"errors"`
	Canceled   int64 `json:"canceled"`
	InFlight   int64 `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`
	Workers    int64 `json:"workers"`
	Pixels     int64 `json:"pixels"`
	Components int64 `json:"components"`
	Panics     int64 `json:"worker_panics"`

	BusyNs int64                   `json:"worker_busy_ns"`
	Pools  [poolCount]PoolSnapshot `json:"pools"`
	// Labelings counts the successful labelings of each labeler that ran,
	// by name: the bit-packed kernel serves unpinned binary requests as
	// pbremsp, and a /v1/stats stream counts as band.
	Labelings map[string]int64 `json:"labelings"`
}

// Snapshot copies the current counters. QueueDepth is the number of requests
// waiting in the queue at the instant of the call.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		Requests:   e.metrics.requests.Load(),
		Completed:  e.metrics.completed.Load(),
		Rejected:   e.metrics.rejected.Load(),
		Errors:     e.metrics.errors.Load(),
		Canceled:   e.metrics.canceled.Load(),
		InFlight:   e.metrics.inFlight.Load(),
		QueueDepth: int64(len(e.queue)),
		Workers:    int64(e.workers),
		Pixels:     e.metrics.pixels.Load(),
		Components: e.metrics.components.Load(),
		Panics:     e.metrics.panics.Load(),
		BusyNs:     e.metrics.busyNs.Load(),
		Labelings:  make(map[string]int64, len(algNames)),
		// The names are the `pool` label values on ccserve_pool_get_total
		// and ccserve_pool_miss_total, in exposition order.
		Pools: [poolCount]PoolSnapshot{
			e.images.census("image"), e.bitmaps.census("bitmap"),
			e.labelMaps.census("labelmap"), e.scratch.census("scratch"),
			e.grays.census("gray"), e.volumes.census("volume"),
			e.labelVols.census("labelvol"),
		},
	}
	for i, alg := range algNames {
		s.Labelings[string(alg)] = e.metrics.labelings[i].Load()
	}
	return s
}

// writeHistograms writes the engine's latency histograms: queue wait,
// raster service time, and the per-phase family.
func (e *Engine) writeHistograms(pw *promWriter) {
	pw.hist("queue_wait_ns",
		"Time requests waited in the engine queue before a worker picked them up, in nanoseconds (log2 buckets).",
		[]histSeries{{h: &e.metrics.queueWaitHist}})
	pw.hist("job_service_ns",
		"Worker service time of completed raster labelings (queue wait excluded), in nanoseconds (log2 buckets).",
		[]histSeries{{h: &e.metrics.jobHist}})
	series := make([]histSeries, 0, phaseCount)
	for i := range e.metrics.phaseHist {
		series = append(series, histSeries{labels: `phase="` + phaseNames[i] + `"`, h: &e.metrics.phaseHist[i]})
	}
	pw.hist("phase_duration_ns",
		"Per-request duration of each labeling phase (scan, merge, flatten, relabel) and of the response shaping after it (components, contours), in nanoseconds (log2 buckets).", series)
}

// promWriter renders the /metrics exposition in the Prometheus text format,
// every name under the ccserve_ prefix. It keeps the first write error and
// writes nothing after it: the status is already sent, and a failed write
// means the scraper has gone.
type promWriter struct {
	w   io.Writer
	err error
}

// printf writes one piece of the exposition, unless a write already failed.
func (pw *promWriter) printf(format string, args ...any) {
	if pw.err == nil {
		_, pw.err = fmt.Fprintf(pw.w, format, args...)
	}
}

// family writes the HELP and TYPE lines that open a metric family.
func (pw *promWriter) family(kind, name, help string) {
	pw.printf("# HELP ccserve_%s %s\n# TYPE ccserve_%s %s\n", name, help, name, kind)
}

// promMetric is one unlabeled counter or gauge.
type promMetric struct {
	kind, name, help string
	v                int64
}

// metrics writes each metric's HELP, TYPE and sample.
func (pw *promWriter) metrics(ms []promMetric) {
	for _, m := range ms {
		pw.family(m.kind, m.name, m.help)
		pw.printf("ccserve_%s %d\n", m.name, m.v)
	}
}

// promSeries is one labeled sample of a labeled metric family.
type promSeries struct {
	labels string // rendered label list without braces, e.g. `pool="image"`
	v      int64
}

// labeled writes one labeled counter or gauge family: HELP and TYPE once,
// then one sample line per series.
func (pw *promWriter) labeled(kind, name, help string, series []promSeries) {
	pw.family(kind, name, help)
	for _, s := range series {
		pw.printf("ccserve_%s{%s} %d\n", name, s.labels, s.v)
	}
}

// write writes the snapshot's counters and gauges, then its pool and
// labeler families.
func (s Snapshot) write(pw *promWriter) {
	pw.metrics([]promMetric{
		{"counter", "requests_total", "Labeling requests received, admitted or not.", s.Requests},
		{"counter", "completed_total", "Labelings that completed successfully.", s.Completed},
		{"counter", "rejected_total", "Requests shed by queue backpressure or engine shutdown.", s.Rejected},
		{"counter", "errors_total", "Labelings that failed (bad options, canceled jobs).", s.Errors},
		{"counter", "canceled_total", "Callers that gave up waiting before their labeling finished.", s.Canceled},
		{"gauge", "in_flight", "Labelings running on workers right now.", s.InFlight},
		{"gauge", "queue_depth", "Requests waiting in the engine queue right now.", s.QueueDepth},
		{"gauge", "workers", "Size of the labeling worker pool.", s.Workers},
		{"counter", "pixels_total", "Pixels labeled, cumulative.", s.Pixels},
		{"counter", "components_total", "Connected components found, cumulative.", s.Components},
		{"counter", "worker_panics_total", "Labeling panics contained by the worker's recover (the job failed, the worker survived, its buffers were quarantined).", s.Panics},
		{"counter", "worker_busy_ns_total", "Cumulative wall time workers spent executing jobs (every kind and outcome); divide the rate by ccserve_workers for pool utilization.", s.BusyNs},
	})
	gets := make([]promSeries, 0, poolCount)
	misses := make([]promSeries, 0, poolCount)
	for _, p := range s.Pools {
		label := `pool="` + p.Name + `"`
		gets = append(gets, promSeries{labels: label, v: p.Gets})
		misses = append(misses, promSeries{labels: label, v: p.Misses})
	}
	pw.labeled("counter", "pool_get_total",
		"Borrows from the engine's image/bitmap/labelmap/scratch/gray/volume/labelvol sync.Pools.", gets)
	pw.labeled("counter", "pool_miss_total",
		"Pool borrows that had to allocate (gets minus misses = reuse hits).", misses)
	algs := make([]promSeries, 0, len(algNames))
	for _, alg := range algNames {
		algs = append(algs, promSeries{labels: `alg="` + string(alg) + `"`, v: s.Labelings[string(alg)]})
	}
	pw.labeled("counter", "labelings_total",
		"Successful labelings by the labeler that ran (unpinned binary requests run pbremsp; /v1/stats streams run band).", algs)
}

// writeJobsMetrics writes the job store's census — per-state gauges plus
// the cumulative submission, dedup-hit and eviction counters — after the
// engine snapshot.
func writeJobsMetrics(pw *promWriter, c jobs.Counts) {
	pw.metrics([]promMetric{
		{"gauge", "jobs_queued", "Async jobs waiting for a worker.", c.Queued},
		{"gauge", "jobs_running", "Async jobs running right now.", c.Running},
		{"gauge", "jobs_done", "Finished async jobs whose results are retained.", c.Done},
		{"gauge", "jobs_failed", "Failed async jobs retained for inspection.", c.Failed},
		{"gauge", "jobs_canceled", "Canceled async jobs (client timeout, job timeout or server drain) retained for inspection.", c.Canceled},
		{"gauge", "jobs_result_bytes", "Estimated memory pinned by retained job results.", c.ResultBytes},
		{"gauge", "jobs_store_disk_bytes", "Bytes the durable job store holds on disk (result and pending-input blobs); 0 on the memory backend.", c.DiskBytes},
		{"counter", "jobs_submitted_total", "Async jobs created (dedup hits excluded).", c.Submitted},
		{"counter", "jobs_dedup_hits_total", "Submissions answered by an existing identical job.", c.DedupHits},
		{"counter", "jobs_evicted_total", "Jobs evicted by TTL, the result-byte cap or an unreadable result blob.", c.Evicted},
		{"counter", "jobs_spilled_total", "Result payloads the durable store spilled from RAM to disk under the result-byte cap.", c.Spilled},
		{"counter", "jobs_recovered_total", "Jobs resubmitted to the engine during startup recovery.", c.Recovered},
		{"counter", "jobs_recovery_canceled_total", "Journaled jobs canceled during startup recovery (input lost or engine refused).", c.RecoveryCanceled},
		{"counter", "jobs_journal_errors_total", "Durable job-journal append failures (write or fsync); nonzero means the journal has diverged and restart recovery may lose or resurrect jobs. 0 on the memory backend.", c.JournalErrors},
	})
}
