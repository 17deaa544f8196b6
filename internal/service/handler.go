package service

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/pnm"
	"repro/internal/stream"
)

// Media types the service speaks.
const (
	ctPBM  = "image/x-portable-bitmap"
	ctPGM  = "image/x-portable-graymap"
	ctPNM  = "image/x-portable-anymap"
	ctPNG  = "image/png"
	ctCCL  = "application/x-ccl"
	ctJSON = "application/json"
)

// HandlerConfig configures NewHandler.
type HandlerConfig struct {
	// MaxImageBytes caps the request body; larger uploads get 413.
	// 0 selects 64 MiB.
	MaxImageBytes int64
	// Level is the default binarization threshold for grayscale input
	// (im2bw semantics); requests override it with ?level=. 0 selects the
	// paper's 0.5.
	Level float64
	// DefaultAlgorithm is used when a request does not pin ?alg=. Empty
	// leaves requests unpinned: a binary body then decodes straight into a
	// packed bitmap and runs PBREMSP, and the response carries PAREMSP's
	// numbering, byte for byte what alg=paremsp returns; the gray and volume
	// modes run PAREMSP. Any name pins it: a byte algorithm (paremsp
	// included) decodes a byte raster, a bit-packed one (bremsp, pbremsp)
	// a bitmap. cmd/paperbench, which calls the library, still times
	// PAREMSP itself.
	DefaultAlgorithm paremsp.Algorithm
	// Jobs, when non-nil, enables the asynchronous job API (POST /v1/jobs
	// and the /v1/jobs/{id} endpoints) backed by this store. The handler
	// does not own the store; the caller closes it, after WaitJobs.
	Jobs *jobs.Store
	// Obs carries the request-observability state: the structured logger,
	// the per-endpoint latency histograms, and the trace ring that
	// NewDebugHandler dumps. nil creates a private, non-logging Obs (the
	// histograms and /metrics exposition still work).
	Obs *Obs
	// RequestTimeout bounds a synchronous labeling request's labeling (queue
	// wait + compute + result wait). A request that exceeds it has its job
	// canceled and answers 504. 0 disables the server-side timeout.
	RequestTimeout time.Duration
	// JobTimeout bounds an async job from submission to terminal state; a
	// job that exceeds it is canceled (terminal state "canceled"). 0
	// disables the timeout.
	JobTimeout time.Duration
	// BaseContext, when non-nil, parents every async job's context so that
	// canceling it (server drain/shutdown) cancels queued and running jobs.
	// nil selects context.Background(), restoring fire-and-forget jobs.
	BaseContext context.Context
}

// Handler is the service's HTTP surface — an http.Handler that additionally
// exposes the drain lifecycle (StartDrain/Draining) and the async jobs'
// shutdown barrier (WaitJobs). Create it with NewHandler.
type Handler struct {
	engine     *Engine
	maxBytes   int64
	level      float64
	defaultAlg paremsp.Algorithm
	jobs       *jobs.Store
	obs        *Obs
	reqTimeout time.Duration
	jobTimeout time.Duration
	baseCtx    context.Context

	// draining makes admission endpoints answer 503 and flips /healthz to
	// "draining" once StartDrain is called.
	draining atomic.Bool

	// pending counts admitted async jobs whose terminal state has not yet
	// landed in the store; WaitJobs waits for it.
	pending sync.WaitGroup

	// root is the observability-wrapped mux ServeHTTP delegates to.
	root http.Handler
}

// NewHandler wraps an Engine in the service's HTTP surface: POST /v1/label,
// POST /v1/stats, POST /v1/volume, GET /healthz, GET /metrics, and — when
// cfg.Jobs is set — the asynchronous job API POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/result, DELETE /v1/jobs/{id}. Every
// route runs inside the observability middleware: responses carry
// X-Request-ID (inbound IDs are honored, otherwise one is minted), access
// lines go to the Obs logger, per-endpoint latency feeds the /metrics
// histograms, and each request leaves a phase trace in the Obs ring buffer.
func NewHandler(e *Engine, cfg HandlerConfig) *Handler {
	h := &Handler{
		engine:     e,
		maxBytes:   cfg.MaxImageBytes,
		level:      cfg.Level,
		defaultAlg: cfg.DefaultAlgorithm,
		jobs:       cfg.Jobs,
		obs:        cfg.Obs,
		reqTimeout: cfg.RequestTimeout,
		jobTimeout: cfg.JobTimeout,
		baseCtx:    cfg.BaseContext,
	}
	if h.maxBytes <= 0 {
		h.maxBytes = 64 << 20
	}
	if h.level == 0 {
		h.level = 0.5
	}
	if h.obs == nil {
		h.obs = NewObs(nil, 0)
	}
	if h.baseCtx == nil {
		h.baseCtx = context.Background()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/label", h.serveSync)
	mux.HandleFunc("POST /v1/stats", h.serveSync)
	mux.HandleFunc("POST /v1/volume", h.serveSync)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /metrics", h.metrics)
	if h.jobs != nil {
		mux.HandleFunc("POST /v1/jobs", h.jobsSubmit)
		mux.HandleFunc("GET /v1/jobs/{id}", h.jobStatus)
		mux.HandleFunc("GET /v1/jobs/{id}/result", h.jobResult)
		mux.HandleFunc("DELETE /v1/jobs/{id}", h.jobDelete)
	}
	h.root = h.obs.middleware(mux)
	return h
}

// ServeHTTP dispatches to the handler's observability-wrapped mux.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.root.ServeHTTP(w, r) }

// StartDrain flips the handler into drain mode: admission endpoints
// (/v1/label, /v1/stats, /v1/volume, POST /v1/jobs) answer 503 with a
// Retry-After hint and /healthz reports "draining" with 503 so load
// balancers take the instance out of rotation. Read endpoints (job
// status/result, /metrics) keep working so in-flight outcomes stay
// fetchable during the drain window. Idempotent; there is no undo.
func (h *Handler) StartDrain() { h.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (h *Handler) Draining() bool { return h.draining.Load() }

// WaitJobs blocks until every async job admitted through h has landed its
// terminal state (done, failed or canceled) in the store. Call it after the
// engine has stopped — Close, or Drain followed by canceling BaseContext
// and Close — and before closing the store: a completion that raced
// Store.Close would be dropped, and a durable store would then re-run a
// job that had already finished.
func (h *Handler) WaitJobs() { h.pending.Wait() }

// rejectDraining answers an admission attempt made during drain.
func (h *Handler) rejectDraining(w http.ResponseWriter) {
	h.setRetryAfter(w)
	writeError(w, http.StatusServiceUnavailable, codeUnavailable, "server is draining")
}

// setRetryAfter sets the backoff hint of a 429 or 503, derived from the
// engine's observed mean job latency and current backlog instead of a
// fixed guess.
func (h *Handler) setRetryAfter(w http.ResponseWriter) {
	secs := int(math.Ceil(h.engine.RetryAfter().Seconds()))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.engine.Snapshot().WriteTo(w)
	h.engine.writeHistograms(w)
	h.obs.writeRequestHists(w)
	writeRuntimeMetrics(w)
	if h.jobs != nil {
		writeJobsMetrics(w, h.jobs.Counts())
	}
}

// writeErr maps a failed request to its envelope, whatever stage failed:
// a validation failure keeps its own status (400, 406, 415), backpressure
// answers 429 (Retry-After set), shutdown or client cancellation 503, a
// contained worker panic 500, a lapsed deadline 504, a body over the cap
// 413, and anything else — an undecodable body, or an engine
// option-validation failure (unknown algorithm, unsupported connectivity
// or mode) — 400.
func (h *Handler) writeErr(w http.ResponseWriter, err error) {
	var (
		ae     *apiError
		tooBig *http.MaxBytesError
	)
	switch {
	case errors.As(err, &ae):
		writeError(w, ae.status, ae.code, ae.message)
	case errors.Is(err, ErrQueueFull):
		h.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, codeQueueFull, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, err.Error())
	case errors.Is(err, ErrWorkerPanic):
		// Contained worker panic: this one job failed, the server is
		// healthy — a retry may well succeed.
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		// The -request-timeout budget (or the client's own deadline)
		// lapsed; the labeling was canceled at its next poll point.
		writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		// Client gave up; nothing useful to write.
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, err.Error())
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
			fmt.Sprintf("image exceeds %d bytes", tooBig.Limit))
	default:
		writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
	}
}

// serveSync handles the synchronous endpoints. A synchronous request is an
// async job without the store: parseSpec resolves its kind and Params,
// decode reads the body into a pooled engine task, the engine runs it on
// the shared queue, finish builds the jobs.Result and writeResult renders
// it — the path a job takes, answered on the request's own connection.
//
// POST /v1/label labels the 2-D modes. mode=binary (default) takes
// PBM/PGM/PNG and binarizes grayscale at ?level=; mode=gray and
// mode=gray-delta take PGM/PNG and label the gray levels directly
// (exact-value components, or delta-tolerant ones). ?contours=true
// additionally traces each component's outer boundary into the JSON
// response (JSON only).
//
// POST /v1/stats streams the body (raw PBM P4 or raw PGM P5) through the
// out-of-core band labeler, so arbitrarily tall images — chunked uploads
// included — are labeled in O(band) memory and only their component
// statistics come back. Query parameters: level (binarization threshold
// for P5), band (band height in rows, 0 = default), components (false
// leaves the component list out). The response is always JSON; there is
// no label raster to return.
//
// POST /v1/volume takes a stack of concatenated raw-PGM (P5) frames —
// every frame one z-slice, all with identical dimensions — binarized at
// ?level= and labeled as one 3-D volume with 26-connectivity,
// slab-parallel per the paper's chunked scheme. The response is always
// JSON.
func (h *Handler) serveSync(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		h.rejectDraining(w)
		return
	}
	spec, err := h.parseSpec(r)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	accept, err := acceptFor(spec.kind, r.Header.Get("Accept"))
	if err == nil && spec.kind == jobs.KindContours && accept != ctJSON {
		err = &apiError{status: http.StatusNotAcceptable, code: codeNotAcceptable,
			message: fmt.Sprintf("contours are %s only", ctJSON)}
	}
	if err != nil {
		h.writeErr(w, err)
		return
	}

	tr := traceFrom(r.Context())
	decodeStart := time.Now()
	d, err := h.decode(spec.kind, spec.params, http.MaxBytesReader(w, r.Body, h.maxBytes))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	// A JSON labeling without components reads nothing of the label map
	// but its count, which FLATTEN yields, so it stops there.
	opt := options(spec.params)
	opt.CountOnly = spec.kind == jobs.KindLabels && !spec.components && accept == ctJSON
	if tr != nil {
		// A stream parses only its header up front — band decoding is
		// interleaved with labeling on the worker — so its DecodeNs is the
		// header cost and the streamed pass lands in queue+total.
		tr.DecodeNs = time.Since(decodeStart).Nanoseconds()
		tr.Alg = ranAlg(d.task, opt)
		tr.Pixels = int64(d.info.Width) * int64(d.info.Height) * int64(max(d.info.Depth, 1))
	}
	// The labeling runs under the request's context, deadline-bounded when
	// RequestTimeout is configured.
	ctx := r.Context()
	if h.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.reqTimeout)
		defer cancel()
	}
	out := h.engine.do(ctx, d.task, opt)
	// The trace is filled from the returned outcome only, so a worker that
	// finishes after a cancellation never races the (pooled, recycled)
	// record.
	if tr != nil {
		tr.QueueNs, tr.Threads = out.wait.Nanoseconds(), out.threads
	}
	res, err := h.finish(ctx, spec.kind, d.info, out, spec.components && accept == ctJSON)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	defer h.engine.labelMaps.put(res.Labels)

	encodeStart := time.Now()
	if tr != nil {
		tr.setPhases(res.Phases.Scan, res.Phases.Merge, res.Phases.Flatten, res.Phases.Relabel)
		// Server-Timing must precede the body; encode time therefore lives
		// only in the /debug/requests trace record and the access line.
		w.Header().Set("Server-Timing", string(appendServerTiming(nil, tr, encodeStart.Sub(tr.Start))))
	}
	writeResult(w, spec.kind, accept, res, spec.components)
	if tr != nil {
		tr.EncodeNs = time.Since(encodeStart).Nanoseconds()
	}
}

// options is p as the engine's labeling options. An unpinned request asks
// for PAREMSP: its answer in every mode, which a packed binary task
// computes with the run kernel and the rank pass.
func options(p jobs.Params) paremsp.Options {
	return paremsp.Options{
		Algorithm:    paremsp.Algorithm(cmp.Or(p.Alg, string(paremsp.AlgPAREMSP))),
		Connectivity: p.Conn,
		Threads:      p.Threads,
		Mode:         paremsp.Mode(p.Mode),
		Delta:        p.Delta,
	}
}

// decoded is one request body decoded into a pooled engine input: the task
// that labels it, and the facts its response reports — captured here,
// because the engine consumes the input (it may return it to its pool
// after a cancellation while a worker still reads it).
type decoded struct {
	task task
	info jobs.ResultInfo
}

// decode reads one body into a pooled input for kind and returns the task
// that labels it; it is the one decode path behind the synchronous
// endpoints, fresh async jobs and recovered ones. A stats body is read on
// the worker (only its raw-PBM/PGM header is parsed here); a volume body
// is concatenated P5 z-slices. The 2-D kinds resolve their codec from
// p.ContentType, sniffing an absent or generic type. Gray kinds decode
// intensities, maxval-scaled onto the 0..255 domain the gray labelers
// compare. A binary body of any codec decodes straight into a packed
// bitmap, and a byte raster only when a byte algorithm is pinned. A binary
// raster's density comes from the foreground count its decoder returns,
// so the raster is not read a second time. On error the borrowed input is
// already back in its pool.
func (h *Handler) decode(kind jobs.Kind, p jobs.Params, body io.Reader) (decoded, error) {
	if faultinject.Fire(faultinject.DecodeError) {
		return decoded{}, errors.New("faultinject: decode-error")
	}
	e := h.engine
	switch kind {
	case jobs.KindStats:
		src, err := pnm.NewBandReader(body, p.Level)
		if err != nil {
			return decoded{}, err
		}
		return decoded{
			task: streamTask{src: src, opt: band.Options{BandRows: p.BandRows}},
			info: jobs.ResultInfo{Width: src.Width(), Height: src.Height(), BandRows: p.BandRows},
		}, nil
	case jobs.KindVolume:
		vol := e.volumes.get()
		if err := pnm.DecodeVolumeInto(body, p.Level, vol); err != nil {
			e.volumes.put(vol)
			return decoded{}, err
		}
		return decoded{task: volumeTask{vol}, info: jobs.ResultInfo{Width: vol.W, Height: vol.H, Depth: vol.D}}, nil
	}
	br := bufio.NewReader(body)
	codec, err := bodyKind(p.ContentType, br)
	if err != nil {
		return decoded{}, err
	}
	switch {
	case kind == jobs.KindGray:
		g := e.grays.get()
		if codec == "png" {
			err = pnm.DecodePNGGrayInto(br, g)
		} else {
			err = pnm.DecodeGrayInto(br, g)
		}
		if err != nil {
			e.grays.put(g)
			return decoded{}, err
		}
		// Gray labeling has no background: every pixel belongs to a
		// component, so the foreground density is definitionally 1.
		return decoded{task: e.grayTask(g), info: jobs.ResultInfo{Width: g.Width, Height: g.Height, Density: 1}}, nil
	case packed(p.Alg):
		bm := e.bitmaps.get()
		var fg int
		if codec == "png" {
			fg, err = pnm.DecodePNGBitmapInto(br, p.Level, bm)
		} else {
			fg, err = pnm.DecodeBitmapInto(br, p.Level, bm)
		}
		if err != nil {
			e.bitmaps.put(bm)
			return decoded{}, err
		}
		return decoded{task: e.bitmapTask(bm), info: binaryInfo(bm.Width, bm.Height, fg)}, nil
	}
	img := e.images.get()
	var fg int
	if codec == "png" {
		fg, err = pnm.DecodePNGInto(br, p.Level, img)
	} else {
		fg, err = pnm.DecodeIntoCount(br, p.Level, img)
	}
	if err != nil {
		e.images.put(img)
		return decoded{}, err
	}
	return decoded{task: e.imageTask(img), info: binaryInfo(img.Width, img.Height, fg)}, nil
}

// packed reports whether a binary labeling under the algorithm choice alg
// labels a packed bitmap: unpinned (the run kernel, answering with
// PAREMSP's numbering) or pinned to a bit-packed algorithm.
func packed(alg string) bool {
	switch paremsp.Algorithm(alg) {
	case "", paremsp.AlgBREMSP, paremsp.AlgPBREMSP:
		return true
	}
	return false
}

// binaryInfo is the response facts of a w x h binary raster holding fg
// foreground pixels.
func binaryInfo(w, h, fg int) jobs.ResultInfo {
	info := jobs.ResultInfo{Width: w, Height: h}
	if px := w * h; px > 0 {
		info.Density = float64(fg) / float64(px)
	}
	return info
}

// finish turns a task's outcome into the jobs.Result every response is
// rendered from; it is the one post-labeling step behind the synchronous
// endpoints, fresh async jobs and recovered ones. comps asks for the
// per-component summaries (component statistics, volume sizes). A volume
// keeps only its summary, so its label volume goes straight back to the
// pool; a label map rides the result — a synchronous request recycles it
// after rendering, a job keeps it out of the pool until eviction or
// deletion releases it to the GC. Contours are traced under ctx here, on
// the caller's goroutine: tracing is output shaping, not labeling, so it
// does not hold a worker. A synchronous request's trace, which ctx
// carries, times the component summaries and the contours.
func (h *Handler) finish(ctx context.Context, kind jobs.Kind, info jobs.ResultInfo, out jobResult, comps bool) (*jobs.Result, error) {
	if out.err != nil {
		return nil, out.err
	}
	res := &jobs.Result{ResultInfo: info}
	res.Threads, res.Alg = out.threads, out.alg
	tr, start := traceFrom(ctx), time.Now()
	switch {
	case out.bres != nil:
		res.Stats, res.NumComponents = out.bres, out.bres.NumComponents
	case out.vres != nil:
		res.NumComponents, res.Phases = out.vres.NumComponents, out.vres.Phases
		if comps {
			res.VolumeSizes = paremsp.VolumeComponentSizes(out.vres.Labels, out.vres.NumComponents)
			if tr != nil {
				tr.ComponentsNs = time.Since(start).Nanoseconds()
			}
		}
		h.engine.PutVolumeResult(out.vres)
	default:
		res.Labels, res.NumComponents, res.Phases = out.res.Labels, out.res.NumComponents, out.res.Phases
		if comps {
			res.Components = paremsp.ComponentsOf(res.Labels)
			if tr != nil {
				tr.ComponentsNs = time.Since(start).Nanoseconds()
			}
		}
		if kind == jobs.KindContours {
			start = time.Now()
			var err error
			if res.Contours, err = paremsp.TraceContoursCtx(ctx, res.Labels, res.NumComponents); err != nil {
				// The labeling succeeded but the trace was canceled; the
				// label map is unneeded, back to the pool with it.
				h.engine.PutResult(out.res)
				return nil, err
			}
			if tr != nil {
				tr.ContoursNs = time.Since(start).Nanoseconds()
			}
		}
	}
	return res, nil
}

// writeResult renders a finished result of the given kind in the
// negotiated format; it is the one renderer behind the synchronous
// endpoints and GET /v1/jobs/{id}/result. Streaming statistics and volume
// summaries are JSON; a labeling is JSON (with its components and contours
// when present), a PGM or PNG label map, or a CCL1 label stream. Only a
// JSON labeling may lack its label map. comps is ?components=: false
// leaves every per-component list out of the JSON. Write errors are
// dropped: the status is already sent, and a failed write means the
// client has gone.
func writeResult(w http.ResponseWriter, kind jobs.Kind, accept string, res *jobs.Result, comps bool) {
	if d := faultinject.Delay(faultinject.EncodeSlow); d > 0 {
		time.Sleep(d)
	}
	if res.Stats != nil || kind == jobs.KindVolume || accept == ctJSON {
		w.Header().Set("Content-Type", ctJSON)
		w.WriteHeader(http.StatusOK)
		writeResultJSON(w, kind, res, comps)
		return
	}
	w.Header().Set("Content-Type", accept)
	switch accept {
	case ctPGM:
		paremsp.EncodeLabelsPGM(w, res.Labels)
	case ctPNG:
		paremsp.EncodeLabelsPNG(w, res.Labels)
	case ctCCL:
		stream.WriteLabels(w, res.Labels, res.NumComponents)
	}
}

// bodyKind resolves the request body codec ("pnm" or "png") from the
// Content-Type, falling back to magic-number sniffing for an absent or
// generic type; a body it cannot place is a 415.
func bodyKind(contentType string, body *bufio.Reader) (string, error) {
	ct := contentType
	if ct != "" {
		if parsed, _, err := mime.ParseMediaType(ct); err == nil {
			ct = parsed
		}
	}
	unsupported := func(format string, args ...any) error {
		return &apiError{status: http.StatusUnsupportedMediaType, code: codeUnsupportedMedia, message: fmt.Sprintf(format, args...)}
	}
	switch ct {
	case ctPBM, ctPGM, ctPNM:
		return "pnm", nil
	case ctPNG:
		return "png", nil
	case "", "application/octet-stream", "application/x-www-form-urlencoded":
		// The last is curl's --data-binary default; nobody posts real form
		// data here, so sniff it like an untyped upload.
		magic, err := body.Peek(2)
		if err != nil {
			return "", unsupported("cannot sniff image format: %v", err)
		}
		if magic[0] == 0x89 {
			return "png", nil
		}
		if magic[0] == 'P' && magic[1] >= '1' && magic[1] <= '5' {
			return "pnm", nil
		}
		return "", unsupported("unrecognized image format (magic %q)", magic)
	default:
		return "", unsupported("unsupported Content-Type %q (want %s, %s or %s)", contentType, ctPBM, ctPGM, ctPNG)
	}
}

// negotiateAccept picks the response format from an Accept header: the
// first supported media range wins, an empty header (or */*) selects JSON,
// and "" means the header offers nothing the service speaks.
func negotiateAccept(header string) string {
	if strings.TrimSpace(header) == "" {
		return ctJSON
	}
	for _, part := range strings.Split(header, ",") {
		mt, _, _ := strings.Cut(part, ";")
		switch strings.TrimSpace(mt) {
		case ctJSON, "application/*", "*/*":
			return ctJSON
		case ctPGM, ctPNM:
			return ctPGM
		case ctPNG, "image/*":
			return ctPNG
		case ctCCL:
			return ctCCL
		}
	}
	return ""
}

// acceptFor negotiates the format of a kind's result: labelings render as
// JSON, PGM, PNG or CCL1; stats and volume results are JSON only. A header
// offering nothing the result can be rendered as is a 406.
func acceptFor(kind jobs.Kind, header string) (string, error) {
	accept := negotiateAccept(header)
	want := fmt.Sprintf("%s, %s, %s or %s", ctJSON, ctPGM, ctPNG, ctCCL)
	if kind == jobs.KindStats || kind == jobs.KindVolume {
		want = ctJSON
		if accept != ctJSON {
			accept = ""
		}
	}
	if accept == "" {
		return "", &apiError{status: http.StatusNotAcceptable, code: codeNotAcceptable,
			message: fmt.Sprintf("unsupported Accept %q (%s results are %s)", header, kind, want)}
	}
	return accept, nil
}
