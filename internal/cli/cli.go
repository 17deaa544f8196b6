// Package cli implements the command-line tools (cclabel, genimg,
// paperbench, ccstream, ccserve) as testable Run functions; the cmd/* mains
// are thin wrappers.
// Each Run parses its own flags from args (excluding the program name),
// writes human output to stdout and diagnostics to stderr, and returns a
// process exit code.
package cli

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	paremsp "repro"
	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/pnm"
	"repro/internal/service"
	"repro/internal/stream"
)

// CCLabel implements the cclabel command: label a PBM/PGM/PNG file.
func CCLabel(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cclabel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	alg := fs.String("alg", string(paremsp.AlgPAREMSP), "algorithm: "+algList())
	threads := fs.Int("threads", 0, "worker goroutines for paremsp (0 = all CPUs)")
	conn := fs.Int("conn", 8, "connectivity: 4 or 8")
	level := fs.Float64("level", 0.5, "binarization threshold for grayscale input")
	out := fs.String("o", "", "write labels to this .pgm or .png file")
	showStats := fs.Bool("stats", false, "print per-component statistics")
	showContours := fs.Bool("contours", false, "print per-component contour perimeters")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cclabel [flags] input.{pbm,pgm,png}")
		fs.PrintDefaults()
		return 2
	}
	path := fs.Arg(0)
	img, err := readImage(path, *level)
	if err != nil {
		fmt.Fprintln(stderr, "cclabel:", err)
		return 1
	}

	start := time.Now()
	res, err := paremsp.Label(img, paremsp.Options{
		Algorithm:    paremsp.Algorithm(*alg),
		Threads:      *threads,
		Connectivity: *conn,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cclabel:", err)
		return 1
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "%s: %dx%d, %d foreground pixels (density %.3f)\n",
		filepath.Base(path), img.Width, img.Height, img.ForegroundCount(), img.Density())
	fmt.Fprintf(stdout, "%s found %d components in %v\n", *alg, res.NumComponents, elapsed)
	if p := res.Phases; p.Total() > 0 {
		fmt.Fprintf(stdout, "phases: scan %v, merge %v, flatten %v, relabel %v\n",
			p.Scan, p.Merge, p.Flatten, p.Relabel)
	}

	if *showStats {
		printComponents(stdout, paremsp.ComponentsOf(res.Labels))
	}
	if *showContours {
		fmt.Fprintln(stdout, "label  boundary-pixels  perimeter")
		for _, c := range paremsp.TraceContours(res.Labels, res.NumComponents) {
			fmt.Fprintf(stdout, "%5d  %15d  %9.1f\n",
				c.Label, len(c.Points), paremsp.ContourPerimeter(c.Points))
		}
	}

	if *out != "" {
		if err := writeLabels(*out, res.Labels); err != nil {
			fmt.Fprintln(stderr, "cclabel:", err)
			return 1
		}
		fmt.Fprintf(stdout, "labels written to %s\n", *out)
	}
	return 0
}

func algList() string {
	names := make([]string, 0, 9)
	for _, a := range paremsp.Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, ", ")
}

func readImage(path string, level float64) (*paremsp.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pbm", ".pgm":
		return paremsp.DecodePNM(f, level)
	case ".png":
		return paremsp.DecodePNG(f, level)
	default:
		return nil, fmt.Errorf("unsupported input extension %q (want .pbm, .pgm or .png)", filepath.Ext(path))
	}
}

func writeLabels(path string, lm *paremsp.LabelMap) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pgm":
		return paremsp.EncodeLabelsPGM(f, lm)
	case ".png":
		return paremsp.EncodeLabelsPNG(f, lm)
	default:
		return fmt.Errorf("unsupported output extension %q (want .pgm or .png)", filepath.Ext(path))
	}
}

// GenImg implements the genimg command: emit a synthetic dataset as PBM.
func GenImg(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("genimg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "landcover", "generator: noise, checker, stripes, blobs, serpentine, rings, landcover, aerial, texture, text, misc")
	width := fs.Int("w", 1024, "image width")
	height := fs.Int("h", 1024, "image height")
	seed := fs.Int64("seed", 1, "generator seed")
	density := fs.Float64("density", 0.5, "noise: foreground density")
	cell := fs.Int("cell", 4, "checker: cell size")
	thickness := fs.Int("thickness", 2, "stripes/serpentine/rings: stroke thickness")
	gap := fs.Int("gap", 3, "stripes/serpentine/rings: gap")
	count := fs.Int("count", 32, "blobs: blob count")
	scale := fs.Int("scale", 2, "text: glyph scale / landcover: feature scale divisor")
	text := fs.String("text", "PAREMSP", "text: string to render")
	out := fs.String("o", "", "output .pbm path (default stdout)")
	raw := fs.Bool("raw", true, "write raw P4 (false = plain P1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var img *binimg.Image
	switch *kind {
	case "noise":
		img = dataset.UniformNoise(*width, *height, *density, *seed)
	case "checker":
		img = dataset.Checkerboard(*width, *height, *cell)
	case "stripes":
		img = dataset.Stripes(*width, *height, *thickness, *gap, false)
	case "blobs":
		img = dataset.Blobs(*width, *height, *count, 2, max(3, min(*width, *height)/12), *seed)
	case "serpentine":
		img = dataset.Serpentine(*width, *height, *thickness, *gap)
	case "rings":
		img = dataset.ConcentricRings(*width, *height, *thickness, *gap)
	case "landcover":
		img = dataset.LandCover(*width, *height, max(2, min(*width, *height)/max(1, *scale*16)), 0.5, *seed)
	case "aerial":
		img = dataset.Aerial(*width, *height, *seed)
	case "texture":
		img = dataset.Texture(*width, *height, *seed)
	case "text":
		img = dataset.Text(*width, *height, *text, *scale, *seed)
	case "misc":
		img = dataset.Misc(*width, *height, *seed)
	default:
		fmt.Fprintf(stderr, "genimg: unknown kind %q\n", *kind)
		return 2
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "genimg:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := paremsp.EncodePBM(w, img, *raw); err != nil {
		fmt.Fprintln(stderr, "genimg:", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "genimg: wrote %s (%dx%d, density %.3f)\n",
			*out, img.Width, img.Height, img.Density())
	}
	return 0
}

// CCStream implements the ccstream command: label a raw PBM (P4) or raw PGM
// (P5) file with the out-of-core band labeler. The image streams through
// fixed-height row bands (O(band) resident memory, independent of image
// height); per-component statistics accumulate during the pass, and the
// label raster — whose final numbering is only known once the stream
// completes — spills as provisional ids to a scratch file that a second
// sequential pass rewrites into a CCL1 label stream.
func CCStream(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccstream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "labels.ccl", "output CCL1 label-stream path")
	bandRows := fs.Int("band", 0, "band height in rows (0 = default)")
	level := fs.Float64("level", 0.5, "binarization threshold for raw PGM input")
	showStats := fs.Bool("stats", false, "print per-component statistics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ccstream [-o labels.ccl] [-band rows] input.{pbm,pgm}")
		fs.PrintDefaults()
		return 2
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "ccstream:", err)
		return 1
	}
	defer in.Close()
	spill, err := os.CreateTemp(filepath.Dir(*out), "ccstream-spill-*")
	if err != nil {
		fmt.Fprintln(stderr, "ccstream:", err)
		return 1
	}
	defer os.Remove(spill.Name())
	defer spill.Close()
	outF, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, "ccstream:", err)
		return 1
	}
	defer outF.Close()

	start := time.Now()
	src, err := pnm.NewBandReader(in, *level)
	if err != nil {
		fmt.Fprintln(stderr, "ccstream:", err)
		return 1
	}
	// Ctrl-C / SIGTERM cancels the labeling at the next band boundary
	// instead of leaving a partial output file behind silently.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := stream.LabelBands(ctx, src, spill, outF, *bandRows)
	if err != nil {
		fmt.Fprintln(stderr, "ccstream:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d components in %v; labels written to %s\n",
		filepath.Base(fs.Arg(0)), res.NumComponents, time.Since(start).Round(time.Millisecond), *out)
	if *showStats {
		printComponents(stdout, res.Components)
	}
	return 0
}

// printComponents writes the -stats table of cclabel and ccstream.
func printComponents(w io.Writer, comps []paremsp.Component) {
	fmt.Fprintln(w, "label  area  runs  bbox              centroid")
	for _, c := range comps {
		fmt.Fprintf(w, "%5d %5d %5d  (%d,%d)-(%d,%d)  (%.1f, %.1f)\n",
			c.Label, c.Area, c.Runs, c.MinX, c.MinY, c.MaxX, c.MaxY, c.CentroidX, c.CentroidY)
	}
}

// newServeLogger builds ccserve's structured logger from the -log-level
// and -log-format flags, writing to stderr (stdout stays human output).
func newServeLogger(stderr io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// jobEventLogger adapts the job store's lifecycle hook to slog: terminal
// transitions (done, failed, evicted) log at Info, the chattier
// submitted/started/dedup ones at Debug.
func jobEventLogger(logger *slog.Logger) func(jobs.Event) {
	return func(ev jobs.Event) {
		level := slog.LevelDebug
		switch ev.Type {
		case jobs.EventDone, jobs.EventFailed, jobs.EventEvicted:
			level = slog.LevelInfo
		}
		if !logger.Enabled(context.Background(), level) {
			return
		}
		attrs := make([]slog.Attr, 0, 5)
		attrs = append(attrs, slog.String("id", ev.ID), slog.String("kind", string(ev.Kind)))
		if ev.Wait > 0 {
			attrs = append(attrs, slog.Duration("queue_wait", ev.Wait))
		}
		if ev.Run > 0 {
			attrs = append(attrs, slog.Duration("run", ev.Run))
		}
		if ev.Err != "" {
			attrs = append(attrs, slog.String("error", ev.Err))
		}
		logger.LogAttrs(context.Background(), level, "job "+ev.Type, attrs...)
	}
}

// CCServe implements the ccserve command: run the HTTP labeling service on a
// bounded worker pool until SIGINT/SIGTERM, then drain gracefully — admission
// flips to 503 (with /healthz reporting "draining" so load balancers rotate
// the instance out), queued-but-unstarted jobs are canceled, running jobs get
// up to -drain-timeout to finish, and stragglers are force-canceled at their
// next poll point before the listener closes.
func CCServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8377", "listen address")
	workers := fs.Int("workers", 0, "labeling workers (0 = all CPUs)")
	queue := fs.Int("queue", 0, "queued requests beyond in-flight before 429 (0 = 2x workers)")
	threads := fs.Int("threads", 0, "threads for every labeling that does not pin ?threads= (0 = every idle CPU at dispatch, at least one)")
	maxBytes := fs.Int64("max-bytes", 64<<20, "largest accepted image body in bytes")
	level := fs.Float64("level", 0.5, "default binarization threshold for grayscale input, in (0, 1); per-request ?level= accepts [0, 1)")
	alg := fs.String("alg", "", "algorithm for requests without ?alg=; unset, binary bodies decode packed, run pbremsp and answer with paremsp's numbering (gray and volume run paremsp; paperbench still times paremsp itself), and a name pins it: "+algList())
	jobsOn := fs.Bool("jobs", true, "enable the asynchronous job API (/v1/jobs)")
	jobTTL := fs.Duration("job-ttl", 15*time.Minute, "retain finished job results this long before eviction")
	jobMaxBytes := fs.Int64("job-max-bytes", 0, "cap on retained job-result bytes; oldest results evicted beyond it (0 = 512 MiB)")
	jobStore := fs.String("job-store", jobs.BackendMemory, "job store backend: memory (jobs lost on restart) or disk (durable journal + result blobs under -job-dir; results spill to disk instead of evicting)")
	jobDir := fs.String("job-dir", "", "directory for the durable job store (required with -job-store=disk)")
	reqTimeout := fs.Duration("request-timeout", 0, "cancel a synchronous labeling and answer 504 after this long (0 = no server-side timeout)")
	jobTimeoutFlag := fs.Duration("job-timeout", 0, "cancel an async job that has not reached a terminal state after this long (0 = no timeout)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "on SIGTERM/SIGINT, wait this long for running jobs before force-canceling them")
	logLevel := fs.String("log-level", "info", "structured-log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "structured-log format on stderr: text or json")
	debugAddr := fs.String("debug-addr", "", "optional operator listener serving /debug/pprof/ and /debug/requests (keep off the public network; empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: ccserve [flags]")
		fs.PrintDefaults()
		return 2
	}
	if *maxBytes <= 0 {
		fmt.Fprintln(stderr, "ccserve: -max-bytes must be positive")
		return 2
	}
	if *level <= 0 || *level >= 1 {
		fmt.Fprintln(stderr, "ccserve: -level must be in (0, 1)")
		return 2
	}
	if *alg != "" && !slices.Contains(paremsp.Algorithms(), paremsp.Algorithm(*alg)) {
		fmt.Fprintf(stderr, "ccserve: unknown -alg %q (want %s)\n", *alg, algList())
		return 2
	}
	if *jobsOn && *jobTTL <= 0 {
		fmt.Fprintln(stderr, "ccserve: -job-ttl must be positive")
		return 2
	}
	if *jobMaxBytes < 0 {
		fmt.Fprintln(stderr, "ccserve: -job-max-bytes must be >= 0")
		return 2
	}
	// sqlite is the disk store's former name, still accepted (with a
	// warning once the logger is up).
	sqliteAlias := *jobStore == "sqlite"
	if sqliteAlias {
		*jobStore = jobs.BackendDisk
	}
	durableStore := *jobStore != "" && *jobStore != jobs.BackendMemory
	if *jobsOn && durableStore && *jobDir == "" {
		fmt.Fprintf(stderr, "ccserve: -job-store=%s requires -job-dir\n", *jobStore)
		return 2
	}
	// A directory on a memory store would be silently ignored, and the
	// operator who expected durability would lose every job on restart.
	if *jobsOn && !durableStore && *jobDir != "" {
		fmt.Fprintln(stderr, "ccserve: -job-dir requires -job-store=disk")
		return 2
	}
	if *reqTimeout < 0 || *jobTimeoutFlag < 0 {
		fmt.Fprintln(stderr, "ccserve: -request-timeout and -job-timeout must be >= 0")
		return 2
	}
	if *drainTimeout <= 0 {
		fmt.Fprintln(stderr, "ccserve: -drain-timeout must be positive")
		return 2
	}
	logger, err := newServeLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "ccserve:", err)
		return 2
	}
	if sqliteAlias {
		logger.Warn("-job-store=sqlite is deprecated; use -job-store=disk (the same store)")
	}

	var store *jobs.Store
	if *jobsOn {
		store, err = jobs.Open(jobs.Options{
			Backend:        *jobStore,
			Dir:            *jobDir,
			TTL:            *jobTTL,
			MaxResultBytes: *jobMaxBytes,
			OnEvent:        jobEventLogger(logger),
		})
		if err != nil {
			fmt.Fprintln(stderr, "ccserve:", err)
			return 2
		}
		defer store.Close()
	}
	eng := service.NewEngine(service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		Threads:    *threads,
		OnPanic: func(v any, stack []byte) {
			logger.Error("worker panic contained", "panic", fmt.Sprint(v), "stack", string(stack))
		},
	})
	obs := service.NewObs(logger, 0)
	// baseCtx parents every async job: canceling it at drain time stops
	// queued and straggling jobs at their next poll point.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	handler := service.NewHandler(eng, service.HandlerConfig{
		MaxImageBytes:    *maxBytes,
		Level:            *level,
		DefaultAlgorithm: paremsp.Algorithm(*alg),
		Jobs:             store,
		Obs:              obs,
		RequestTimeout:   *reqTimeout,
		JobTimeout:       *jobTimeoutFlag,
		BaseContext:      baseCtx,
	})
	// Deferred after store.Close, so it runs first: every return path has
	// closed the engine by then, and each admitted job's terminal state
	// lands in the store before the journal closes (a durable store would
	// otherwise re-run a job that finished during the drain).
	defer handler.WaitJobs()
	// A durable store replayed its journal at Open; resubmit everything
	// that was queued or running at the last shutdown before the listener
	// accepts traffic, so recovered jobs queue ahead of new load.
	if store != nil && store.Durable() {
		requeued, canceled := handler.RecoverJobs()
		logger.Info("job recovery complete", "requeued", requeued, "canceled", canceled)
	}
	srv := &http.Server{
		Handler: handler,
		// Streaming endpoints (/v1/stats) read the body on a pool worker, so
		// a stalled client holds labeling capacity; bound at least the header
		// phase. Body-read time is bounded by -max-bytes plus the deployment's
		// load balancer / reverse proxy timeouts.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		eng.Close()
		fmt.Fprintln(stderr, "ccserve:", err)
		return 1
	}

	// The debug listener is separate from the public one so pprof and the
	// request-trace dump can bind to loopback while the service faces the
	// world.
	var debugLn net.Listener
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			eng.Close()
			fmt.Fprintln(stderr, "ccserve:", err)
			return 1
		}
		debugSrv = &http.Server{Handler: service.NewDebugHandler(obs), ReadHeaderTimeout: 10 * time.Second}
		go debugSrv.Serve(debugLn)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	jobsState := "off"
	if store != nil {
		jobsState = fmt.Sprintf("%s, ttl %v", *jobStore, store.TTL())
	}
	fmt.Fprintf(stdout, "ccserve: listening on %s (%d workers, queue %d, jobs %s)\n",
		ln.Addr(), eng.Workers(), eng.QueueDepth(), jobsState)
	startAttrs := []slog.Attr{
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", eng.Workers()),
		slog.Int("queue", eng.QueueDepth()),
		slog.Int("threads", *threads),
		slog.Int64("max_bytes", *maxBytes),
		slog.Float64("level", *level),
		slog.String("alg", cmp.Or(*alg, "unpinned")),
		slog.Bool("jobs", store != nil),
		slog.Duration("request_timeout", *reqTimeout),
		slog.Duration("job_timeout", *jobTimeoutFlag),
		slog.Duration("drain_timeout", *drainTimeout),
	}
	if store != nil {
		startAttrs = append(startAttrs,
			slog.String("job_store", *jobStore),
			slog.Duration("job_ttl", store.TTL()),
			slog.Int64("job_max_bytes", *jobMaxBytes))
		if durableStore {
			startAttrs = append(startAttrs, slog.String("job_dir", *jobDir))
		}
	}
	if debugLn != nil {
		startAttrs = append(startAttrs, slog.String("debug_addr", debugLn.Addr().String()))
	}
	logger.LogAttrs(context.Background(), slog.LevelInfo, "ccserve listening", startAttrs...)

	select {
	case err := <-errCh:
		eng.Close()
		fmt.Fprintln(stderr, "ccserve:", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "ccserve: shutting down (draining)")
	logger.Info("shutting down", "reason", "signal", "drain_timeout", *drainTimeout)
	drainStart := time.Now()
	// Drain order: admission off first (the listener keeps answering, with
	// 503 + Retry-After and /healthz reporting "draining", so load balancers
	// rotate the instance out before the port vanishes), then give running
	// jobs -drain-timeout to finish while queued-but-unstarted ones are
	// rejected, then force-cancel stragglers via the jobs' base context, and
	// only then close the listener.
	handler.StartDrain()
	drained := eng.Drain(*drainTimeout)
	if !drained {
		logger.Warn("drain timeout lapsed; force-canceling running jobs", "timeout", *drainTimeout)
	}
	baseCancel()
	sdCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	code := 0
	if err := srv.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "ccserve: shutdown:", err)
		logger.Error("shutdown", "error", err)
		code = 1
	}
	if debugSrv != nil {
		debugSrv.Shutdown(sdCtx)
	}
	eng.Close()
	snap := eng.Snapshot()
	logger.Info("drain complete",
		"graceful", drained,
		"drain_ns", time.Since(drainStart).Nanoseconds(),
		"requests", snap.Requests,
		"completed", snap.Completed,
		"canceled", snap.Canceled,
		"worker_panics", snap.Panics)
	fmt.Fprintln(stdout, "ccserve: stopped")
	return code
}

// defaultTolerance is the ns/op regression tolerance of -diff for every
// configuration a -regress-policy file does not set (0.25 = fail beyond
// +25%).
const defaultTolerance = 0.25

// reportDiff prints the outcome of a regression diff and returns the
// process exit code: 0 clean, 3 on gating regressions, 1 when nothing was
// comparable. Configurations present on only one side are reported, not
// errors — benchmark grids evolve between PRs, and the gate compares the
// intersection.
func reportDiff(stdout, stderr io.Writer, base, cur *experiments.BenchReport, basePath string, policy *experiments.Policy) int {
	d := experiments.DiffReports(base, cur, defaultTolerance, policy)
	if len(d.Added) > 0 {
		fmt.Fprintf(stdout, "paperbench: %d configuration(s) not in %s (new or rescaled, not compared):\n", len(d.Added), basePath)
		for _, k := range d.Added {
			fmt.Fprintf(stdout, "  + %s\n", k)
		}
	}
	if len(d.Removed) > 0 {
		fmt.Fprintf(stdout, "paperbench: %d baseline configuration(s) not measured by this run:\n", len(d.Removed))
		for _, k := range d.Removed {
			fmt.Fprintf(stdout, "  - %s\n", k)
		}
	}
	if len(d.Pairs) == 0 {
		fmt.Fprintf(stderr, "paperbench: no comparable pairs between this run and %s (different -scale or algorithm set?)\n", basePath)
		return 1
	}
	gating := d.Gating()
	for _, r := range d.Regressions() {
		if r.Allowed {
			fmt.Fprintf(stdout, "paperbench: allowlisted regression %s %d -> %d ns/op (%.2fx, tolerance +%.0f%%)\n",
				r.Key, r.BaseNs, r.CurNs, r.Ratio, r.Tolerance*100)
		}
	}
	if len(gating) == 0 {
		fmt.Fprintf(stdout, "paperbench: no gating ns/op regressions vs %s (%d pairs compared)\n", basePath, len(d.Pairs))
		return 0
	}
	fmt.Fprintf(stdout, "paperbench: %d ns/op regression(s) vs %s:\n", len(gating), basePath)
	for _, r := range gating {
		fmt.Fprintf(stdout, "  %-24s %12d -> %12d ns/op (%.2fx, tolerance +%.0f%%)\n",
			r.Key, r.BaseNs, r.CurNs, r.Ratio, r.Tolerance*100)
	}
	return 3
}

// readFile opens path and decodes it with read: a benchmark report, a
// grid config or a regression policy.
func readFile[T any](path string, read func(io.Reader) (*T, error)) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// writeFile creates path, writes it with render and closes it. It returns
// the first error of the three, so a write that fails only when the file
// is closed still fails.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitRev resolves the short revision of the working tree, best effort: a
// grid report self-describes where its numbers came from, but a missing git
// binary (or a tarball checkout) must not break a benchmark run.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// paperBenchAnalyze implements the -analyze mode: digest a report into
// markdown + CSV tables, optionally with a trajectory against -baseline.
func paperBenchAnalyze(path, basePath, outDir string, stdout, stderr io.Writer) int {
	rep, err := readFile(path, experiments.ReadBenchReport)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	analysis := experiments.Analyze(rep)
	var baseline *experiments.BenchReport
	if basePath != "" {
		if baseline, err = readFile(basePath, experiments.ReadBenchReport); err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
	}
	if outDir == "" {
		analysis.WriteMarkdown(stdout, baseline)
		return 0
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	files := []struct {
		name   string
		render func(io.Writer) error
	}{
		{"analysis.md", func(w io.Writer) error { return analysis.WriteMarkdown(w, baseline) }},
		{"configs.csv", analysis.WriteConfigsCSV},
		{"scaling.csv", analysis.WriteScalingCSV},
	}
	for _, file := range files {
		if err := writeFile(filepath.Join(outDir, file.name), file.render); err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "paperbench: analysis written to %s (analysis.md, configs.csv, scaling.csv)\n", outDir)
	return 0
}

// PaperBench implements the paperbench command: regenerate the paper's
// tables and figures, run the experiments.json benchmark grid, analyze a
// benchmark report, or gate on a regression diff.
func PaperBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all, table2, table3, table4, fig3, fig4, fig5")
	scale := fs.Float64("scale", experiments.DefaultConfig.Scale, "image-size scale factor (1.0 = paper sizes); overrides the -grid config when set explicitly")
	repeats := fs.Int("repeats", experiments.DefaultConfig.Repeats, "timed repetitions per image; overrides the -grid config when set explicitly")
	warmup := fs.Int("warmup", experiments.DefaultConfig.Warmup, "untimed warmup runs per image; overrides the -grid config when set explicitly")
	jsonOut := fs.String("json", "", "write machine-readable per-algorithm ns/op + allocs to this file ('-' = stdout) instead of running -exp")
	gridPath := fs.String("grid", "", "run the experiment grid in this config file (e.g. experiments.json) instead of every algorithm at the library-default thread count; combines with -json and -diff")
	tag := fs.String("tag", "", "tag recorded in the report (default: the -grid config's tag)")
	diffPath := fs.String("diff", "", "run the benchmark (default point or -grid) and compare it against this baseline report (e.g. BENCH_seed.json); exit 3 on regressions beyond tolerance")
	policyPath := fs.String("regress-policy", "", "per-benchmark tolerance + allowlist policy file for -diff (e.g. perf_policy.json); without one every configuration is held to +25%")
	analyzePath := fs.String("analyze", "", "analyze this benchmark report (medians/CIs, scaling curves, efficiency) instead of running anything")
	basePath := fs.String("baseline", "", "with -analyze: add a trajectory section diffing against this report")
	outDir := fs.String("out", "", "with -analyze: write analysis.md, configs.csv and scaling.csv into this directory (default: markdown to stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *scale <= 0 || *scale > 1 {
		fmt.Fprintln(stderr, "paperbench: -scale must be in (0, 1]")
		return 2
	}
	if *repeats < 1 {
		fmt.Fprintln(stderr, "paperbench: -repeats must be >= 1")
		return 2
	}
	if *warmup < 0 {
		fmt.Fprintln(stderr, "paperbench: -warmup must be >= 0")
		return 2
	}

	if *analyzePath != "" {
		return paperBenchAnalyze(*analyzePath, *basePath, *outDir, stdout, stderr)
	}

	sweep := experiments.GridConfig{Scale: *scale, Repeats: *repeats, Warmup: *warmup}
	if *jsonOut != "" || *diffPath != "" || *gridPath != "" {
		// Without -grid the report is the grid's library-default thread
		// point over every algorithm and class: the rows BENCH_seed.json
		// holds.
		gridCfg := &sweep
		if *gridPath != "" {
			var err error
			gridCfg, err = readFile(*gridPath, experiments.ReadGridConfig)
			if err != nil {
				fmt.Fprintln(stderr, "paperbench:", err)
				return 1
			}
			// Explicit flags override the config's knobs, so CI can run the
			// checked-in grid at a smoke scale without a second config file.
			if explicit["scale"] {
				gridCfg.Scale = *scale
			}
			if explicit["repeats"] {
				gridCfg.Repeats = *repeats
			}
			if explicit["warmup"] {
				gridCfg.Warmup = *warmup
			}
		}
		report := experiments.RunGrid(gridCfg, experiments.GridMeta{
			Tag:      *tag,
			GitRev:   gitRev(),
			Progress: stderr,
		})
		if *jsonOut != "" {
			render := func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(report)
			}
			var err error
			if *jsonOut == "-" {
				err = render(stdout)
			} else if err = writeFile(*jsonOut, render); err == nil {
				fmt.Fprintf(stdout, "paperbench: benchmark report written to %s\n", *jsonOut)
			}
			if err != nil {
				fmt.Fprintln(stderr, "paperbench:", err)
				return 1
			}
		}
		if *diffPath != "" {
			base, err := readFile(*diffPath, experiments.ReadBenchReport)
			if err != nil {
				fmt.Fprintln(stderr, "paperbench:", err)
				return 1
			}
			var policy *experiments.Policy
			if *policyPath != "" {
				policy, err = readFile(*policyPath, experiments.ReadPolicy)
				if err != nil {
					fmt.Fprintln(stderr, "paperbench:", err)
					return 1
				}
			}
			return reportDiff(stdout, stderr, base, report, *diffPath, policy)
		}
		return 0
	}

	// Each timed experiment runs its own grid, so its thread counts pin
	// GOMAXPROCS as every grid row does.
	name := strings.ToLower(*exp)
	var names []string
	var run []experiments.Experiment
	for _, e := range experiments.Experiments {
		names = append(names, e.Name)
		if name == "all" || name == e.Name {
			run = append(run, e)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(stderr, "paperbench: unknown experiment %q (want all, %s)\n",
			*exp, strings.Join(names, ", "))
		return 2
	}
	// The experiments share one set of images: each class is built once.
	images := &experiments.ImageCache{}
	for i, e := range run {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		e.Render(stdout, e.Measure(sweep, images))
	}
	return 0
}
