package service

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/jobs"
)

// Phase indices for the per-phase duration histograms.
const (
	phaseScan = iota
	phaseMerge
	phaseFlatten
	phaseRelabel
	phaseCount
)

// phaseNames maps phase indices to the `phase` label values on
// ccserve_phase_duration_ns.
var phaseNames = [phaseCount]string{"scan", "merge", "flatten", "relabel"}

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
	jobNs      atomic.Int64 // cumulative wall time of completed raster jobs (RetryAfter's mean)
	jobsTimed  atomic.Int64 // completions accounted in jobNs (stream jobs excluded)
	busyNs     atomic.Int64 // cumulative wall time workers spent on jobs, every kind and outcome
	panics     atomic.Int64 // worker panics contained by recoverPanic

	phaseNs [phaseCount]atomic.Int64 // cumulative PhaseTimes, per phase

	queueWaitHist hist             // enqueue → worker-dequeue wait, all jobs
	jobHist       hist             // worker service time, non-stream jobs
	phaseHist     [phaseCount]hist // per-phase durations, kernels that time phases
}

// PoolSnapshot is the reuse census of one of the engine's rasters/scratch
// sync.Pools: Gets is every borrow, Misses the borrows that had to allocate,
// so Gets − Misses is the hit count (GC-emptied pools show up as misses).
type PoolSnapshot struct {
	Name   string `json:"name"`
	Gets   int64  `json:"gets"`
	Misses int64  `json:"misses"`
}

// Snapshot is a point-in-time copy of the engine's counters, plus
// approximate job-latency quantiles read from the service-time histogram
// (exact within the 2× log₂-bucket resolution).
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
	ScanNs     int64 `json:"scan_ns"`
	MergeNs    int64 `json:"merge_ns"`
	FlattenNs  int64 `json:"flatten_ns"`
	RelabelNs  int64 `json:"relabel_ns"`
	JobNs      int64 `json:"job_ns"`
	JobP50Ns   int64 `json:"job_latency_p50_ns"`
	JobP95Ns   int64 `json:"job_latency_p95_ns"`
	JobP99Ns   int64 `json:"job_latency_p99_ns"`
	Panics     int64 `json:"worker_panics"`

	BusyNs int64                   `json:"worker_busy_ns"`
	Pools  [poolCount]PoolSnapshot `json:"pools"`
}

// Snapshot copies the current counters. QueueDepth is the number of requests
// waiting in the queue at the instant of the call.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
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
		ScanNs:     e.metrics.phaseNs[phaseScan].Load(),
		MergeNs:    e.metrics.phaseNs[phaseMerge].Load(),
		FlattenNs:  e.metrics.phaseNs[phaseFlatten].Load(),
		RelabelNs:  e.metrics.phaseNs[phaseRelabel].Load(),
		JobNs:      e.metrics.jobNs.Load(),
		JobP50Ns:   e.metrics.jobHist.quantile(0.50),
		JobP95Ns:   e.metrics.jobHist.quantile(0.95),
		JobP99Ns:   e.metrics.jobHist.quantile(0.99),
		Panics:     e.metrics.panics.Load(),
		BusyNs:     e.metrics.busyNs.Load(),
		// The names are the `pool` label values on ccserve_pool_get_total
		// and ccserve_pool_miss_total, in exposition order.
		Pools: [poolCount]PoolSnapshot{
			e.images.census("image"), e.bitmaps.census("bitmap"),
			e.labelMaps.census("labelmap"), e.scratch.census("scratch"),
			e.grays.census("gray"), e.volumes.census("volume"),
			e.labelVols.census("labelvol"),
		},
	}
}

// writeHistograms renders the engine's latency histograms — queue wait,
// raster service time, and the per-phase family — in Prometheus histogram
// exposition. Shared-package plumbing for the /metrics handler.
func (e *Engine) writeHistograms(w io.Writer) {
	writePromHist(w, "queue_wait_ns",
		"Time requests waited in the engine queue before a worker picked them up, in nanoseconds (log2 buckets).",
		[]histSeries{{h: &e.metrics.queueWaitHist}})
	writePromHist(w, "job_service_ns",
		"Worker service time of completed raster labelings (queue wait excluded), in nanoseconds (log2 buckets).",
		[]histSeries{{h: &e.metrics.jobHist}})
	series := make([]histSeries, 0, phaseCount)
	for i := range e.metrics.phaseHist {
		series = append(series, histSeries{labels: `phase="` + phaseNames[i] + `"`, h: &e.metrics.phaseHist[i]})
	}
	writePromHist(w, "phase_duration_ns",
		"Per-request duration of each labeling phase, in nanoseconds (log2 buckets).", series)
}

// promMetric is one metric of the ccserve_* text exposition.
type promMetric struct {
	kind, name, help string
	v                int64
}

// writeProm renders metrics in the Prometheus text exposition format under
// the ccserve_ prefix — HELP and TYPE for every metric; shared by the
// engine snapshot and the job census.
func writeProm(w io.Writer, ms []promMetric) (int64, error) {
	var total int64
	for _, m := range ms {
		n, err := fmt.Fprintf(w, "# HELP ccserve_%s %s\n# TYPE ccserve_%s %s\nccserve_%s %d\n",
			m.name, m.help, m.name, m.kind, m.name, m.v)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// promSeries is one labeled sample of a labeled metric family.
type promSeries struct {
	labels string // rendered label list without braces, e.g. `pool="image"`
	v      int64
}

// writePromLabeled renders one labeled counter/gauge family: HELP and TYPE
// once, then one sample line per series.
func writePromLabeled(w io.Writer, kind, name, help string, series []promSeries) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "# HELP ccserve_%s %s\n# TYPE ccserve_%s %s\n", name, help, name, kind)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, s := range series {
		n, err := fmt.Fprintf(w, "ccserve_%s{%s} %d\n", name, s.labels, s.v)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// WriteTo renders the snapshot in the Prometheus text exposition format.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := writeProm(w, []promMetric{
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
		{"counter", "phase_scan_ns_total", "Cumulative scan-phase nanoseconds.", s.ScanNs},
		{"counter", "phase_merge_ns_total", "Cumulative merge-phase nanoseconds.", s.MergeNs},
		{"counter", "phase_flatten_ns_total", "Cumulative flatten-phase nanoseconds.", s.FlattenNs},
		{"counter", "phase_relabel_ns_total", "Cumulative relabel-phase nanoseconds.", s.RelabelNs},
		{"counter", "job_latency_ns_total", "Cumulative wall time of completed raster labelings.", s.JobNs},
		{"gauge", "job_latency_p50_ns", "Approximate median raster service time (log2-bucket upper bound).", s.JobP50Ns},
		{"gauge", "job_latency_p95_ns", "Approximate 95th-percentile raster service time (log2-bucket upper bound).", s.JobP95Ns},
		{"gauge", "job_latency_p99_ns", "Approximate 99th-percentile raster service time (log2-bucket upper bound).", s.JobP99Ns},
		{"counter", "worker_panics_total", "Labeling panics contained by the worker's recover (the job failed, the worker survived, its buffers were quarantined).", s.Panics},
		{"counter", "worker_busy_ns_total", "Cumulative wall time workers spent executing jobs (every kind and outcome); divide the rate by ccserve_workers for pool utilization.", s.BusyNs},
		{"gauge", "workers_busy", "Workers executing a job right now.", s.InFlight},
	})
	total += n
	if err != nil {
		return total, err
	}
	gets := make([]promSeries, 0, poolCount)
	misses := make([]promSeries, 0, poolCount)
	for _, p := range s.Pools {
		label := `pool="` + p.Name + `"`
		gets = append(gets, promSeries{labels: label, v: p.Gets})
		misses = append(misses, promSeries{labels: label, v: p.Misses})
	}
	n, err = writePromLabeled(w, "counter", "pool_get_total",
		"Borrows from the engine's raster/labelmap/scratch sync.Pools.", gets)
	total += n
	if err != nil {
		return total, err
	}
	n, err = writePromLabeled(w, "counter", "pool_miss_total",
		"Pool borrows that had to allocate (gets minus misses = reuse hits).", misses)
	total += n
	return total, err
}

// writeJobsMetrics renders the job store's census — per-state gauges plus
// the cumulative submission, dedup-hit and eviction counters — after the
// engine snapshot.
func writeJobsMetrics(w io.Writer, c jobs.Counts) (int64, error) {
	return writeProm(w, []promMetric{
		{"gauge", "jobs_queued", "Async jobs waiting for a worker.", c.Queued},
		{"gauge", "jobs_running", "Async jobs running right now.", c.Running},
		{"gauge", "jobs_done", "Finished async jobs whose results are retained.", c.Done},
		{"gauge", "jobs_failed", "Failed async jobs retained for inspection.", c.Failed},
		{"gauge", "jobs_canceled", "Canceled async jobs (client timeout, job timeout or server drain) retained for inspection.", c.Canceled},
		{"gauge", "jobs_result_bytes", "Estimated memory pinned by retained job results.", c.ResultBytes},
		{"gauge", "jobs_store_mem_bytes", "Estimated resident memory held by the job store (entry overhead plus in-RAM result payloads); equals ccserve_jobs_result_bytes, split out for symmetry with the disk gauge.", c.ResultBytes},
		{"gauge", "jobs_store_disk_bytes", "Bytes the durable job store holds on disk (result and pending-input blobs); 0 on the memory backend.", c.DiskBytes},
		{"counter", "jobs_submitted_total", "Async jobs created (dedup hits excluded).", c.Submitted},
		{"counter", "jobs_dedup_hits_total", "Submissions answered by an existing identical job.", c.DedupHits},
		{"counter", "jobs_evicted_total", "Jobs evicted by TTL or the result-byte cap.", c.Evicted},
		{"counter", "jobs_spilled_total", "Result payloads the durable store spilled from RAM to disk under the result-byte cap.", c.Spilled},
		{"counter", "jobs_recovered_total", "Jobs resubmitted to the engine during startup recovery.", c.Recovered},
		{"counter", "jobs_recovery_canceled_total", "Journaled jobs canceled during startup recovery (input lost or engine refused).", c.RecoveryCanceled},
		{"counter", "jobs_journal_errors_total", "Durable job-journal append failures (write or fsync); nonzero means the journal has diverged and restart recovery may lose or resurrect jobs. 0 on the memory backend.", c.JournalErrors},
	})
}
