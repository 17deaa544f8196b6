package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	paremsp "repro"
	"repro/internal/band"
)

// Typed engine errors. The HTTP layer maps ErrQueueFull to 429 and ErrClosed
// to 503; library callers can match them with errors.Is.
var (
	// ErrQueueFull reports that the engine's queue held QueueDepth pending
	// requests already and the new one was rejected (backpressure).
	ErrQueueFull = errors.New("service: request queue full")
	// ErrClosed reports a Label call after Close.
	ErrClosed = errors.New("service: engine closed")
	// ErrWorkerPanic reports that the labeling panicked on the worker. The
	// panic is contained to the one job (the worker survives, the panicking
	// job's pooled buffers are quarantined) and surfaces as a wrapped
	// ErrWorkerPanic — the HTTP layer maps it to 500.
	ErrWorkerPanic = errors.New("service: worker panicked")
)

// Config sizes an Engine.
type Config struct {
	// Workers is the number of labeling goroutines (the in-flight bound).
	// 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth is how many requests may wait beyond the in-flight ones
	// before Label rejects with ErrQueueFull. 0 selects 2*Workers.
	QueueDepth int
	// Threads pins the thread count of every labeling that does not pin
	// its own. 0 lends each such labeling, when a worker dequeues it, every
	// CPU token then free — at least one — from a budget of GOMAXPROCS
	// tokens, and takes them back when it finishes: a lone request labels
	// on every core, and a fully busy pool gives each labeling about one.
	// A pinned count, from the request or from here, runs as asked and
	// debits as many tokens. A labeler that never splits its raster takes
	// one token whatever the count.
	Threads int
	// OnPanic, when non-nil, observes every worker panic with the recovered
	// value and the panicking goroutine's stack (the HTTP layer logs them).
	// It runs on the worker goroutine; keep it fast and non-panicking.
	OnPanic func(v any, stack []byte)
}

// Engine runs labelings on a bounded worker pool. Create one with NewEngine;
// the zero value is not usable.
type Engine struct {
	workers    int
	queueDepth int
	threads    int // Config.Threads; 0 lends free CPU tokens
	queue      chan *job
	wg         sync.WaitGroup
	metrics    metrics

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool

	// draining makes workers reject still-queued jobs with context.Canceled
	// so a drain only waits for jobs that had already started.
	draining atomic.Bool

	// onPanic is Config.OnPanic (may be nil).
	onPanic func(v any, stack []byte)

	// cpus is the CPU-token budget: GOMAXPROCS less the threads the
	// running labelings hold. It goes below zero when a labeling that
	// found no free token takes its one anyway, or pinned counts exceed it.
	cpus atomic.Int64

	// The buffer pools: the inputs callers decode into, and the label maps
	// and union-find scratch the workers label into.
	images    pool[paremsp.Image]
	bitmaps   pool[paremsp.Bitmap]
	grays     pool[paremsp.GrayImage]
	volumes   pool[paremsp.Volume]
	labelMaps pool[paremsp.LabelMap]
	labelVols pool[paremsp.LabelVolumeMap]
	scratch   pool[paremsp.Scratch]

	// gate is called where every raster and volume labeling's kernel runs,
	// with the labeling's context and options; a non-nil error is the
	// labeling's outcome in place of the kernel's, and a panic takes the
	// path a kernel's panic takes. It lets every labeling run; tests
	// replace it to hold, fail, panic or observe labelings.
	gate func(ctx context.Context, opt paremsp.Options) error
}

// pool is a sync.Pool of *T that counts its borrows: gets is every get,
// misses the gets that found nothing to reuse and allocated, so
// gets − misses is the hit count (GC-emptied pools show up as misses).
type pool[T any] struct {
	p            sync.Pool
	gets, misses atomic.Int64
}

func (p *pool[T]) get() *T {
	p.gets.Add(1)
	if v, ok := p.p.Get().(*T); ok {
		return v
	}
	p.misses.Add(1)
	return new(T)
}

// put returns v to the pool; nil is ignored.
func (p *pool[T]) put(v *T) {
	if v != nil {
		p.p.Put(v)
	}
}

func (p *pool[T]) census(name string) PoolSnapshot {
	return PoolSnapshot{Name: name, Gets: p.gets.Load(), Misses: p.misses.Load()}
}

// task is one labeling the engine runs: a pooled input and the kernel that
// labels it. Every input type — binary, bit-packed, gray, volume and the
// band stream — is a task, so admission, the worker loop, panic
// containment and the accounting are written once.
type task interface {
	// run labels the input on a worker. It borrows its output and scratch
	// buffers and returns them, and its input, to their pools in
	// straight-line code after the kernel call: a panic skips those lines,
	// so every buffer a panicking labeling may have left mid-mutation is
	// quarantined (dropped instead of pooled) and the next request never
	// sees a half-written buffer.
	run(ctx context.Context, e *Engine, opt paremsp.Options) jobResult
	// release returns the input to its pool when the task never runs
	// (rejected at admission or by the worker's precheck).
	release(e *Engine)
}

// rasterTask labels a 2-D raster — binary, bit-packed or gray — of pixels
// pixels into a pooled label map with the root entry point for its type.
// A run-kernel task (runs) keeps its provisional labels in its runs, so a
// count-only labeling of one borrows no map.
type rasterTask[T any] struct {
	in     *T
	from   *pool[T]
	pixels int64
	runs   bool
	kernel func(context.Context, *T, *paremsp.LabelMap, *paremsp.Scratch, paremsp.Options) (*paremsp.Result, error)
}

func (t rasterTask[T]) run(ctx context.Context, e *Engine, opt paremsp.Options) jobResult {
	sc := e.scratch.get()
	var lm *paremsp.LabelMap
	if !opt.CountOnly || !t.runs {
		lm = e.labelMaps.get()
	}
	var res *paremsp.Result
	err := e.gate(ctx, opt)
	if err == nil {
		res, err = t.kernel(ctx, t.in, lm, sc, opt)
	}
	e.scratch.put(sc)
	t.release(e)
	if err != nil || res.Labels == nil {
		// A count-only result carries no map: the one it scanned into is
		// free again as soon as the labeling is.
		e.labelMaps.put(lm)
	}
	if err != nil {
		return jobResult{err: err}
	}
	return jobResult{res: res, pixels: t.pixels, components: int64(res.NumComponents), phases: res.Phases}
}

func (t rasterTask[T]) release(*Engine) { t.from.put(t.in) }

func (e *Engine) imageTask(img *paremsp.Image) task {
	return rasterTask[paremsp.Image]{in: img, from: &e.images, pixels: area(img.Width, img.Height), kernel: paremsp.LabelIntoCtx}
}

func (e *Engine) bitmapTask(bm *paremsp.Bitmap) task {
	return rasterTask[paremsp.Bitmap]{in: bm, from: &e.bitmaps, pixels: area(bm.Width, bm.Height), runs: true, kernel: paremsp.LabelBitmapIntoCtx}
}

func (e *Engine) grayTask(img *paremsp.GrayImage) task {
	return rasterTask[paremsp.GrayImage]{in: img, from: &e.grays, pixels: area(img.Width, img.Height), kernel: paremsp.LabelGrayIntoCtx}
}

func area(w, h int) int64 { return int64(w) * int64(h) }

// ranAlg names the labeler that runs t under opt, as traces, access lines
// and ccserve_labelings_total report it: a packed task runs the bit-packed
// kernel whatever numbering opt asks for, so its PAREMSP is PBREMSP, and a
// stream runs the band labeler.
func ranAlg(t task, opt paremsp.Options) string {
	alg := cmp.Or(opt.Algorithm, paremsp.AlgPAREMSP)
	switch t.(type) {
	case streamTask:
		return "band"
	case rasterTask[paremsp.Bitmap]:
		if alg == paremsp.AlgPAREMSP {
			return string(paremsp.AlgPBREMSP)
		}
	}
	return string(alg)
}

// algNames lists every name ranAlg gives, in the exposition order of
// ccserve_labelings_total.
var algNames = append(paremsp.Algorithms(), "band")

// volumeTask labels a voxel volume into a pooled label volume.
type volumeTask struct{ vol *paremsp.Volume }

func (t volumeTask) run(ctx context.Context, e *Engine, opt paremsp.Options) jobResult {
	lv, sc := e.labelVols.get(), e.scratch.get()
	var vres *paremsp.VolumeResult
	err := e.gate(ctx, opt)
	if err == nil {
		vres, err = paremsp.LabelVolumeIntoCtx(ctx, t.vol, lv, sc, opt)
	}
	e.scratch.put(sc)
	t.release(e)
	if err != nil {
		e.labelVols.put(lv)
		return jobResult{err: err}
	}
	return jobResult{vres: vres, pixels: int64(len(vres.Labels.L)), components: int64(vres.NumComponents), phases: vres.Phases}
}

func (t volumeTask) release(e *Engine) { e.volumes.put(t.vol) }

// streamTask runs the out-of-core band labeler. Its source is read on the
// worker, so a stream obeys the same in-flight bound and queue
// backpressure as a raster labeling; with no Ctx of its own it polls the
// job's.
type streamTask struct {
	src band.Source
	opt band.Options
}

func (t streamTask) run(ctx context.Context, _ *Engine, _ paremsp.Options) jobResult {
	if t.opt.Ctx == nil {
		t.opt.Ctx = ctx
	}
	bres, err := band.Stream(t.src, t.opt)
	if err != nil {
		return jobResult{err: err}
	}
	return jobResult{bres: bres, pixels: int64(bres.Width) * int64(bres.Height),
		components: int64(bres.NumComponents), paced: true}
}

func (streamTask) release(*Engine) {}

// job is one admitted task on its way through the queue.
type job struct {
	ctx  context.Context
	task task
	opt  paremsp.Options
	done chan jobResult
	// enqueued is when the job was admitted to the queue; the worker's
	// dequeue time minus this is the queue wait.
	enqueued time.Time
	// onStart, when non-nil, is called by the worker that dequeues the job
	// just before it starts computing (the async job API uses it to flip
	// queued → running).
	onStart func()
}

// jobResult is a task's outcome: on success exactly one of res, bres and
// vres is set.
type jobResult struct {
	res  *paremsp.Result
	bres *band.Result
	vres *paremsp.VolumeResult
	err  error
	// wait is the time the job sat in the queue before a worker picked it
	// up, and threads the thread count it labeled with. They ride the
	// result channel back so the HTTP layer can fill the request trace from
	// its own goroutine — the worker never touches a Trace, which keeps
	// pooled trace records race-free under cancellation.
	wait    time.Duration
	threads int
	// alg is the labeler that ran (see ranAlg).
	alg string
	// pixels (voxels for a volume), components and phases feed the
	// engine's counters. paced marks a stream, whose duration is dominated
	// by how fast the client's source delivers bands, not by compute.
	pixels, components int64
	phases             paremsp.PhaseTimes
	paced              bool
}

// NewEngine starts a worker pool per cfg. Callers must Close it to stop the
// workers.
func NewEngine(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	e := &Engine{
		workers:    workers,
		queueDepth: depth,
		threads:    max(cfg.Threads, 0),
		queue:      make(chan *job, depth),
		onPanic:    cfg.OnPanic,
		gate:       func(context.Context, paremsp.Options) error { return nil },
	}
	e.metrics.labelings = make([]atomic.Int64, len(algNames))
	e.cpus.Store(int64(runtime.GOMAXPROCS(0)))
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the size of the worker pool.
func (e *Engine) Workers() int { return e.workers }

// QueueDepth returns the queue capacity beyond in-flight requests.
func (e *Engine) QueueDepth() int { return e.queueDepth }

// GetImage borrows a binary image from the raster pool; decode into it with
// the DecodeInto helpers and hand it to Label, which consumes it. If the
// image never reaches Label (e.g. decoding failed), return it with PutImage.
func (e *Engine) GetImage() *paremsp.Image { return e.images.get() }

// PutImage returns a borrowed image to the raster pool.
func (e *Engine) PutImage(img *paremsp.Image) { e.images.put(img) }

// PutResult returns a Label result's label map to the raster pool. Call it
// after the response has been written; the result must not be used afterward.
func (e *Engine) PutResult(res *paremsp.Result) {
	if res != nil {
		e.labelMaps.put(res.Labels)
		res.Labels = nil
	}
}

// GetGray borrows a gray raster from the gray pool; decode into it with
// pnm.DecodeGrayInto and hand it to LabelGray, which consumes it. If it
// never reaches LabelGray, return it with PutGray.
func (e *Engine) GetGray() *paremsp.GrayImage { return e.grays.get() }

// PutGray returns a borrowed gray raster to the gray pool.
func (e *Engine) PutGray(img *paremsp.GrayImage) { e.grays.put(img) }

// GetVolume borrows a voxel volume from the volume pool; decode into it with
// pnm.DecodeVolumeInto and hand it to LabelVolume, which consumes it. If it
// never reaches LabelVolume, return it with PutVolume.
func (e *Engine) GetVolume() *paremsp.Volume { return e.volumes.get() }

// PutVolume returns a borrowed volume to the volume pool.
func (e *Engine) PutVolume(vol *paremsp.Volume) { e.volumes.put(vol) }

// PutVolumeResult returns a LabelVolume result's label volume to its pool.
func (e *Engine) PutVolumeResult(res *paremsp.VolumeResult) {
	if res != nil {
		e.labelVols.put(res.Labels)
		res.Labels = nil
	}
}

// Label labels img with the engine's worker pool and per-request options,
// blocking until the labeling completes, ctx is done, or the request is
// rejected. Backpressure: if Workers labelings are in flight and QueueDepth
// more are queued, it fails immediately with ErrQueueFull.
//
// Label consumes img: on every path (success, rejection, cancellation) the
// engine returns it to the raster pool, possibly after Label itself has
// returned — so the caller must not touch img afterward; read any per-image
// facts (dimensions, density) before calling. The returned result's label
// map is pool-owned; release it with PutResult.
func (e *Engine) Label(ctx context.Context, img *paremsp.Image, opt paremsp.Options) (*paremsp.Result, error) {
	r := e.do(ctx, e.imageTask(img), opt)
	return r.res, r.err
}

// LabelGray is Label for a gray raster (modes gray and gray-delta, see
// paremsp.LabelGrayIntoCtx). It consumes img under the same contract Label
// applies to its raster: on every path the engine returns it to the gray
// pool, so read any per-image facts before calling.
func (e *Engine) LabelGray(ctx context.Context, img *paremsp.GrayImage, opt paremsp.Options) (*paremsp.Result, error) {
	r := e.do(ctx, e.grayTask(img), opt)
	return r.res, r.err
}

// LabelVolume is Label for a binary voxel volume (mode volume, see
// paremsp.LabelVolumeIntoCtx); it consumes vol under the raster contract.
// The returned result's label volume is pool-owned; release it with
// PutVolumeResult.
func (e *Engine) LabelVolume(ctx context.Context, vol *paremsp.Volume, opt paremsp.Options) (*paremsp.VolumeResult, error) {
	r := e.do(ctx, volumeTask{vol}, opt)
	return r.vres, r.err
}

// Stats streams src through the out-of-core band labeler on the worker pool
// and returns its component statistics. Unlike Label there is no raster to
// pool: src is read incrementally on the worker goroutine, so the caller
// must keep the underlying reader open until Stats returns — and Stats
// always waits for the worker even when ctx fires, so an HTTP handler can
// safely hand it a request body (the body is never touched after the
// handler returns). A canceled job that is still queued is rejected by the
// worker without reading src; one already streaming finishes early when
// cancellation makes the source's reads fail. Backpressure (ErrQueueFull)
// and Close (ErrClosed) behave as for Label. Note the pool implication:
// a stream job occupies its worker for as long as the source delivers
// bands, so slow uploads hold labeling capacity — deployments should bound
// request read time (server timeouts) alongside MaxImageBytes.
func (e *Engine) Stats(ctx context.Context, src band.Source, opt band.Options) (*band.Result, error) {
	r := e.do(ctx, streamTask{src: src, opt: opt}, streamOptions)
	return r.bres, r.err
}

// Submitted is a labeling admitted to the queue by one of the Submit
// methods: the request sits in the engine queue (or on a worker) and its
// outcome arrives via Wait. The async job API builds on this path.
type Submitted struct {
	pos  int
	done chan jobResult
}

// QueuePosition reports approximately how many requests sat in the engine
// queue — including this one — at the moment the job was admitted. It is a
// point-in-time observation, not a live position.
func (s *Submitted) QueuePosition() int { return s.pos }

// Wait blocks until the job finishes. Exactly one of the results is non-nil
// on success: the raster result for SubmitLabel/SubmitGray, the streaming
// result for SubmitStats, the volume result for SubmitVolume. Wait must be
// called exactly once.
func (s *Submitted) Wait() (*paremsp.Result, *band.Result, *paremsp.VolumeResult, error) {
	r := <-s.done
	return r.res, r.bres, r.vres, r.err
}

// SubmitLabel is the asynchronous form of Label: it admits img to the queue
// and returns immediately with the job's queue position; the caller
// collects the outcome with Wait. onStart, when non-nil, runs on the worker
// just before the labeling starts. The img consumption contract matches
// Label. Backpressure is unchanged: a full queue rejects with ErrQueueFull
// at submit time.
func (e *Engine) SubmitLabel(ctx context.Context, img *paremsp.Image, opt paremsp.Options, onStart func()) (*Submitted, error) {
	return e.submit(ctx, e.imageTask(img), opt, onStart)
}

// SubmitGray is SubmitLabel for a gray raster (see LabelGray).
func (e *Engine) SubmitGray(ctx context.Context, img *paremsp.GrayImage, opt paremsp.Options, onStart func()) (*Submitted, error) {
	return e.submit(ctx, e.grayTask(img), opt, onStart)
}

// SubmitVolume is SubmitLabel for a voxel volume (see LabelVolume).
func (e *Engine) SubmitVolume(ctx context.Context, vol *paremsp.Volume, opt paremsp.Options, onStart func()) (*Submitted, error) {
	return e.submit(ctx, volumeTask{vol}, opt, onStart)
}

// SubmitStats is the asynchronous form of Stats. Unlike Stats, the source
// must stay readable until Wait returns — async callers hand it an
// in-memory buffer, not a request body.
func (e *Engine) SubmitStats(ctx context.Context, src band.Source, opt band.Options, onStart func()) (*Submitted, error) {
	return e.submit(ctx, streamTask{src: src, opt: opt}, streamOptions, onStart)
}

// streamOptions pins a stream at one thread, the band labeler's only one,
// so it holds one CPU token.
var streamOptions = paremsp.Options{Threads: 1}

// RetryAfter estimates how long a client shed with ErrQueueFull should wait
// before retrying: the expected time for the current backlog (queued plus
// in-flight requests) to drain through the pool at the observed mean
// per-job latency, clamped to [1s, 60s]. The mean covers raster labelings
// only — stream jobs run at the client's upload pace, and a few slow
// uploads would otherwise inflate every backoff hint to the cap. Before
// any raster job has completed the estimate is the 1-second floor.
func (e *Engine) RetryAfter() time.Duration {
	_, done := e.metrics.jobHist.snapshot()
	if done == 0 {
		return time.Second
	}
	mean := time.Duration(e.metrics.jobHist.sum.Load() / done)
	backlog := int64(len(e.queue)) + e.metrics.inFlight.Load()
	est := mean * time.Duration(backlog+1) / time.Duration(e.workers)
	if est < time.Second {
		return time.Second
	}
	if est > time.Minute {
		return time.Minute
	}
	return est
}

// submit admits t to the queue and returns its handle, positioned at the
// queue length just after insertion (so including the job itself). Every
// labeling, synchronous or async, enters the engine here; on rejection the
// input goes back to its pool.
func (e *Engine) submit(ctx context.Context, t task, opt paremsp.Options, onStart func()) (*Submitted, error) {
	e.metrics.requests.Add(1)
	if opt.Threads == 0 {
		opt.Threads = e.threads
	}
	j := &job{ctx: ctx, task: t, opt: opt, done: make(chan jobResult, 1), enqueued: time.Now(), onStart: onStart}

	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, e.reject(t, ErrClosed)
	}
	select {
	case e.queue <- j:
		return &Submitted{pos: len(e.queue), done: j.done}, nil
	default:
		return nil, e.reject(t, ErrQueueFull)
	}
}

// reject counts a shed admission and releases its input.
func (e *Engine) reject(t task, err error) error {
	e.metrics.rejected.Add(1)
	t.release(e)
	return err
}

// do is a synchronous labeling: submit, then wait for the outcome or for
// ctx, whichever comes first. Once enqueued, the worker owns the input and
// returns it to its pool; a caller that gives up leaves a goroutine to
// recycle the result the worker still delivers, so the pools stay warm.
//
// A stream is always waited for: it reads its source (an HTTP request
// body) on the worker, so returning before the worker finishes would let
// the engine touch the body after the handler has returned. A queued
// stream with a dead ctx is rejected by the worker's precheck, and a
// running one stops at the first failed read.
func (e *Engine) do(ctx context.Context, t task, opt paremsp.Options) jobResult {
	s, err := e.submit(ctx, t, opt, nil)
	if err != nil {
		return jobResult{err: err}
	}
	if _, stream := t.(streamTask); stream {
		return <-s.done
	}
	select {
	case r := <-s.done:
		return r
	case <-ctx.Done():
		e.metrics.canceled.Add(1)
		go func() {
			r := <-s.done
			e.PutResult(r.res)
			e.PutVolumeResult(r.vres)
		}()
		return jobResult{err: ctx.Err()}
	}
}

// Close stops accepting work and waits for in-flight and queued labelings to
// drain. Subsequent Label calls return ErrClosed; Close is idempotent and
// always waits for the workers, so calling it after a timed-out Drain (whose
// stragglers the caller has since canceled) picks up the remaining exits.
func (e *Engine) Close() {
	e.closeQueue()
	e.wg.Wait()
}

// closeQueue marks the engine closed and closes the queue channel exactly
// once; subsequent submissions fail with ErrClosed.
func (e *Engine) closeQueue() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
}

// Drain shuts the engine down gracefully: admission stops (new submissions
// fail with ErrClosed), jobs still sitting in the queue are rejected with
// context.Canceled without running, and jobs already on a worker run to
// completion. It reports whether every worker exited within timeout; on
// false the caller should cancel the jobs' base context and then Close,
// which waits for the now-canceled stragglers.
func (e *Engine) Drain(timeout time.Duration) bool {
	e.draining.Store(true)
	e.closeQueue()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Draining reports whether Drain has begun.
func (e *Engine) Draining() bool { return e.draining.Load() }

// recoverPanic converts a panic on the calling goroutine into a wrapped
// ErrWorkerPanic in *errp, counts it, and reports it to OnPanic with the
// stack. It must be the direct deferred function of the compute it guards.
func (e *Engine) recoverPanic(errp *error) {
	v := recover()
	if v == nil {
		return
	}
	stack := debug.Stack()
	e.metrics.panics.Add(1)
	if e.onPanic != nil {
		e.onPanic(v, stack)
	}
	*errp = fmt.Errorf("%w: %v", ErrWorkerPanic, v)
}

// compute runs one task with panic containment: a panic in the labeling
// or its gate surfaces as a wrapped ErrWorkerPanic instead of killing the
// worker goroutine, and leaves the task's buffers quarantined (see
// task.run).
func (e *Engine) compute(j *job) (r jobResult) {
	defer e.recoverPanic(&r.err)
	return j.task.run(j.ctx, e, j.opt)
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		if err := j.ctx.Err(); err != nil || e.draining.Load() {
			// Dead context or a drain in progress: reject without running.
			// Drain closes the queue first, so everything a worker still
			// sees here was queued before admission stopped.
			if err == nil {
				err = context.Canceled
			}
			e.metrics.errors.Add(1)
			j.task.release(e)
			j.done <- jobResult{err: err}
			continue
		}
		e.metrics.inFlight.Add(1)
		if j.onStart != nil {
			j.onStart()
		}
		start := time.Now()
		wait := start.Sub(j.enqueued)
		e.metrics.queueWaitHist.observe(wait.Nanoseconds())
		// compute contains panics, so the tokens come back on every path.
		threads := e.takeThreads(j.opt)
		j.opt.Threads = threads
		r := e.compute(j)
		e.cpus.Add(int64(threads))
		r.wait, r.threads, r.alg = wait, threads, ranAlg(j.task, j.opt)
		e.account(r, time.Since(start).Nanoseconds())
		j.done <- r
	}
}

// takeThreads debits the CPU tokens a dequeued labeling runs with and
// returns their count: one for a labeler that never splits its raster, a
// pinned count as asked, otherwise every free token and at least one.
func (e *Engine) takeThreads(opt paremsp.Options) int {
	pinned := opt.Threads
	if !opt.Splits() {
		pinned = 1
	}
	if pinned > 0 {
		e.cpus.Add(-int64(pinned))
		return pinned
	}
	for {
		free := e.cpus.Load()
		n := max(free, 1)
		if e.cpus.CompareAndSwap(free, free-n) {
			return int(n)
		}
	}
}

// account lands one run in the counters. Busy time covers every run,
// whatever its outcome: the worker is occupied either way. A stream stays
// out of the service-time histogram, whose mean RetryAfter is derived from,
// because its duration follows the client's upload pace. Phases are
// observed only when the kernel timed them (every REMSP labeling: binary,
// gray and volume), so the phase histograms never record zeros for the
// baselines and the band stream, and relabel only when it ran: a
// count-only labeling stops after FLATTEN, so its relabel time reads 0.
// Histogram observes are two uncontended atomic adds each, with nothing
// allocated.
func (e *Engine) account(r jobResult, elapsed int64) {
	m := &e.metrics
	m.busyNs.Add(elapsed)
	m.inFlight.Add(-1)
	if r.err != nil {
		m.errors.Add(1)
		return
	}
	m.completed.Add(1)
	if i := slices.Index(algNames, paremsp.Algorithm(r.alg)); i >= 0 {
		m.labelings[i].Add(1)
	}
	m.pixels.Add(r.pixels)
	m.components.Add(r.components)
	if r.paced {
		return
	}
	m.jobHist.observe(elapsed)
	if r.phases.Total() > 0 {
		ph := [...]time.Duration{r.phases.Scan, r.phases.Merge, r.phases.Flatten, r.phases.Relabel}
		n := len(ph)
		if r.phases.Relabel == 0 {
			n = phaseRelabel
		}
		for i, d := range ph[:n] {
			m.phaseHist[i].observe(d.Nanoseconds())
		}
	}
}

// observeShaping lands a response-shaping layer (phaseComponents or
// phaseContours) that took d in its phase histogram and returns d in ns.
// The layers run after the labeling's phases — off the worker, or, for a
// run kernel's component fold, on it — and finish observes them all, so
// account never sees them.
func (e *Engine) observeShaping(phase int, d time.Duration) int64 {
	ns := d.Nanoseconds()
	e.metrics.phaseHist[phase].observe(ns)
	return ns
}
