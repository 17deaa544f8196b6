// Command perfbench is the repository's end-to-end benchmark of ccserve.
//
// It generates a workload's inputs from a seed, execs ccserve with default
// flags on a loopback port (timing exec to the first 200 on /healthz, the
// setup time), checks one answer of every distinct request against the
// flood-fill oracles, then drives the workload from closed-loop clients for
// a timed window, checking every answer, and prints the end-to-end metrics.
// With -trace 1 it then replays the same request sequence in-process
// through each layer's public functions, records a span around every call,
// prints where the time goes and the per-layer metrics instead.
//
// Build and run it through perfbench/run.py from the repository root; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the input digests are pinned for; heldOutSeed is
// kept out of tuning and used only to confirm a claimed change.
const (
	defaultSeed = 1
	heldOutSeed = 20261016
)

// setupRuns is how many times a run execs ccserve to sample setup_s; the
// last start serves the workload.
const setupRuns = 15

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", wlMix, "workload: "+wlLarge+", "+wlMix+" or "+wlJobs)
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out for confirming claims)", defaultSeed, heldOutSeed))
	seconds := fl.Float64("seconds", 10, "length of the timed window")
	trace := fl.Int("trace", 0, "1: also run the traced in-process replay and report the per-layer metrics")
	ccserve := fl.String("ccserve", "", "ccserve binary (run.py builds it)")
	work := fl.String("work", filepath.Join(".bench_build", "work"), "directory for server logs, job stores and span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *ccserve == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || fl.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: perfbench -ccserve <binary> -workload <name> -seed <n> -seconds <s> -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	clients := 2
	if *workload == wlLarge {
		clients = 1
	}
	window := time.Duration(*seconds * float64(time.Second))
	in, err := generate(*workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	in.computeOracles()
	runDir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-pid%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	hc := &http.Client{
		Transport: &http.Transport{Proxy: nil, MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	u, err := measure(ctx, hc, *ccserve, *workload, in, clients, window, runDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	t := u.total
	env := map[string]any{
		"workload": *workload, "seed": *seed, "clients": clients, "seconds": *seconds, "trace": *trace,
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"git_rev": gitRev(), "source_sha256": sourceDigest(), "input_sha256": in.digest(),
		"ccserve_flags": strings.Join(u.flags, " "),
	}

	fmt.Fprintf(stdout, "perfbench %s seed %d: %d clients, %.2fs window, %d operations attempted, %d failed\n",
		*workload, *seed, clients, u.window.Seconds(), t.attempted, t.failed)
	for _, e := range t.errs {
		fmt.Fprintln(stdout, "  error:", e)
	}
	// Printed, not BENCHMARK.json metrics: failed_ratio is 0 on a healthy
	// run, latency_p99_ms needs 1000 samples, and peak RSS on label-large
	// swings between runs with the server's pool hits and GC timing.
	fmt.Fprintf(stdout, "  timed window: %d operations, failed_ratio %.4f, peak_rss_mb %.1f MiB", u.timed.attempted,
		float64(u.timed.failed)/float64(max(u.timed.attempted, 1)), u.rss)
	if len(u.timed.latMs) >= 1000 {
		fmt.Fprintf(stdout, ", latency_p99_ms %.3f", quantile(u.timed.latMs, 0.99))
	}
	fmt.Fprintln(stdout)
	out := u.e2e
	if *trace == 1 {
		layers, rt, err := perLayer(ctx, stdout, *workload, in, clients, window, runDir, u)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		for _, e := range rt.errs {
			fmt.Fprintln(stdout, "  error:", e)
		}
		t.merge(rt)
		out = layers
	}
	printMetrics(stdout, "end-to-end (untraced run)", u.e2e)
	if *trace == 1 {
		printMetrics(stdout, "per-layer", out)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	correct := t.wrong == 0 && u.accountingErr == nil
	if u.accountingErr != nil {
		fmt.Fprintln(stdout, "  error:", u.accountingErr)
	}
	result := map[string]any{"correct": correct, "attempted": t.attempted, "failed": t.failed, "metrics": metricsJSON(out)}
	line, _ := json.Marshal(result)
	if err := os.WriteFile(filepath.Join(runDir, "result.json"), append(append(envJSON, '\n'), line...), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct || t.failed > 0 {
		return 1
	}
	return 0
}

// untraced is the outcome of the untraced run.
type untraced struct {
	total         tally
	window        time.Duration
	flags         []string
	e2e           []metric
	p50           float64
	mpx           float64
	timed         tally   // the timed window alone
	rss           float64 // ccserve VmHWM at the end, MiB
	before, after counters
	accountingErr error
}

// measure runs the untraced benchmark: setup samples, warm-up with full
// oracle checks, then the timed window between two /metrics scrapes.
func measure(ctx context.Context, hc *http.Client, bin, workload string, in *inputs, clients int, window time.Duration, runDir string) (*untraced, error) {
	u := &untraced{}
	var srv *server
	defer func() { srv.stop() }()
	// Collect the input generator's garbage now, so no background GC of
	// this process overlaps the timed server starts.
	debug.FreeOSMemory()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		srv.stop()
		var flags []string
		if workload == wlJobs {
			dir := filepath.Join(runDir, fmt.Sprintf("jobs-%d", i))
			defer os.RemoveAll(dir)
			flags = []string{"-job-store=sqlite", "-job-dir", dir}
		}
		s, took, err := startServer(ctx, bin, flags, filepath.Join(runDir, "ccserve.log"), hc)
		if err != nil {
			return nil, err
		}
		srv, u.flags = s, flags
		setups = append(setups, took.Seconds())
	}

	// Warm-up: one full check of every distinct answer.
	var refs map[*body][]byte
	var jcs []*jobClient
	if workload == wlJobs {
		jcs = newJobClients(hc, srv.base, in)
		warmJobs(jcs, &u.total)
	} else {
		refs = warmSync(hc, srv.base, in, &u.total)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	in.dropOracleMaps()
	debug.FreeOSMemory()

	var err error
	if u.before, err = srv.scrape(hc); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var ts []*tally
	if workload == wlJobs {
		ts = runJobs(ctx, jcs, window)
	} else {
		ts = runSync(ctx, hc, srv.base, in, refs, clients, window)
	}
	u.window = time.Since(start)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	if u.after, err = srv.scrape(hc); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	var timed tally
	for _, t := range ts {
		timed.merge(t)
	}
	if got := delta(u.before, u.after, "ccserve_requests_total"); int(got) != timed.labelings {
		u.accountingErr = fmt.Errorf("ccserve_requests_total rose by %.0f in the window, the clients caused %d labelings", got, timed.labelings)
	}
	u.total.merge(&timed)
	if timed.px == 0 {
		return nil, fmt.Errorf("no operation completed in the timed window: %v", timed.errs)
	}
	u.mpx = float64(timed.px) / 1e6
	u.p50 = quantile(timed.latMs, 0.50)
	u.e2e = []metric{
		{"latency_p50_ms", u.p50, "ms"},
		{"latency_p90_ms", quantile(timed.latMs, 0.90), "ms"},
		{"throughput_mpx_s", u.mpx / u.window.Seconds(), "Mpx/s"},
		{"cpu_ms_per_mpx", ms(cpu1-cpu0) / u.mpx, "ms/Mpx"},
		{"setup_s", median(setups), "s"},
	}
	u.rss = rss
	u.timed = timed
	return u, nil
}

// perLayer runs the traced replay and derives the per-layer metrics from
// its spans, the standalone kernel runs and the untraced run's server
// counters.
func perLayer(ctx context.Context, w io.Writer, workload string, in *inputs, clients int, window time.Duration, runDir string, u *untraced) ([]metric, *tally, error) {
	rp, kt, err := traced(ctx, in, clients, window, runDir)
	if err != nil {
		return nil, nil, err
	}
	rec := rp.rec
	rec.whereTimeGoes(w, workload)
	if err := rec.write(filepath.Join(runDir, "spans.jsonl")); err != nil {
		return nil, nil, err
	}

	var engineOver []float64
	for _, s := range rec.spans {
		if ref, ok := rp.engineOf[s.ID]; ok && s.Req != "" && s.Name == "service.engine" {
			if k, ok := kt.each[ref]; ok {
				engineOver = append(engineOver, ms(s.dur())-k)
			}
		}
	}
	d := func(name string) float64 { return delta(u.before, u.after, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	pass := func(name string) float64 { return median(kt.passes[name]) }
	workers := u.after.sum("ccserve_workers")
	m := []metric{
		{"pnm.decode_ms", rec.layerMedian("pnm.decode"), "ms"},
		{"pnm.decode_packed_ms", rec.layerMedian("pnm.decode_packed"), "ms"},
		{"core.scan_ms", rec.layerMedian("core.scan"), "ms"},
		{"core.merge_ms", rec.layerMedian("core.merge"), "ms"},
		{"core.flatten_ms", rec.layerMedian("core.flatten"), "ms"},
		{"core.relabel_ms", rec.layerMedian("core.relabel"), "ms"},
		{"core.paremsp.t1_ms", pass("core.paremsp.t1"), "ms"},
		{"core.paremsp.t2_ms", pass("core.paremsp.t2"), "ms"},
		{"core.pbremsp.t1_ms", pass("core.pbremsp.t1"), "ms"},
		{"core.pbremsp.t2_ms", pass("core.pbremsp.t2"), "ms"},
		{"core.bremsp.t1_ms", pass("core.bremsp.t1"), "ms"},
		{"core.aremsp.t1_ms", pass("core.aremsp.t1"), "ms"},
		{"core.paremsp.speedup_t2", ratio(pass("core.paremsp.t1"), pass("core.paremsp.t2")), "x"},
		{"core.pbremsp.speedup_t2", ratio(pass("core.pbremsp.t1"), pass("core.pbremsp.t2")), "x"},
		{"service.http_ms", u.p50 - median(rec.durations("request", true)), "ms"},
		{"service.engine_ms", median(engineOver), "ms"},
		{"service.queue_wait_ms", ratio(d("ccserve_queue_wait_ns_sum"), d("ccserve_queue_wait_ns_count")) / 1e6, "ms"},
		{"service.worker_busy_ratio", ratio(d("ccserve_worker_busy_ns_total"), workers*float64(u.window)), "ratio"},
		{"service.pool_miss_ratio", ratio(d("ccserve_pool_miss_total"), d("ccserve_pool_get_total")), "ratio"},
		{"service.gc_cycles_per_gpx", ratio(d("ccserve_go_gc_pause_seconds_count"), u.mpx/1000), "1/Gpx"},
		{"stats.components_ms", rec.layerMedian("stats.components"), "ms"},
		{"contour.trace_ms", rec.layerMedian("contour.trace"), "ms"},
		{"stream.write_labels_ms", rec.layerMedian("stream.write_labels"), "ms"},
		{"pnm.encode_pgm_ms", rec.layerMedian("pnm.encode_pgm"), "ms"},
		{"grayccl.label_ms", rec.layerMedian("grayccl.label"), "ms"},
		{"vol3d.label_ms", rec.layerMedian("vol3d.label"), "ms"},
		{"band.stream_ms", rec.layerMedian("band.stream"), "ms"},
		{"jobs.create_ms", rec.layerMedian("jobs.create"), "ms"},
		{"jobs.complete_ms", rec.layerMedian("jobs.complete"), "ms"},
		{"jobs.get_ms", rec.layerMedian("jobs.get"), "ms"},
		{"jobs.result_ms", rec.layerMedian("jobs.result"), "ms"},
		{"jobs.remove_ms", rec.layerMedian("jobs.remove"), "ms"},
		{"jobs.dedup_ratio", ratio(d("ccserve_jobs_dedup_hits_total"), d("ccserve_jobs_submitted_total")), "ratio"},
	}
	return m, &rp.t, nil
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

func metricsJSON(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// gitRev is the checked-out commit, or "none" outside a git work tree.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest is the SHA-256 of the module's Go sources and go.mod
// outside the build directory, identifying the measured code where no git
// revision is available.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
