package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/jobs"
	"repro/internal/pnm"
	"repro/internal/service"
	"repro/internal/stream"
)

// The traced run replays a workload's request sequence in-process, with
// the same number of clients, calling each layer's public function in the
// order ccserve's handler (and, for jobs, its admitJob path) calls them:
// decoder, Engine method, post-processing, writer, jobs.Store calls. The
// benchmark records a span around every call; the program itself is not
// instrumented.

// Standalone kernel repeats, and the largest raster a probe labels.
const (
	kernelRepeats = 3
	probeMaxPx    = 16 << 20
)

// kernelRef names the standalone kernel run that matches an Engine call,
// for service.engine_ms.
type kernelRef struct {
	kernel string // "paremsp", "gray", "volume" or "band"
	r      *raster
}

type replay struct {
	ctx   context.Context
	in    *inputs
	eng   *service.Engine
	store *jobs.Store // jobs-async only
	rec   *recorder

	mu       sync.Mutex
	engineOf map[int]kernelRef // engine span ID -> its kernel
	t        tally
}

func (rp *replay) fail(format string, args ...any) {
	rp.mu.Lock()
	rp.t.fail(true, format, args...)
	rp.mu.Unlock()
}

func (rp *replay) check(b *body, n int) {
	if n != b.r.want {
		rp.fail("replay %s: %d components, oracle %d", b.r.name, n, b.r.want)
	}
}

func (rp *replay) noteEngine(span int, kernel string, r *raster) {
	rp.mu.Lock()
	rp.engineOf[span] = kernelRef{kernel, r}
	rp.mu.Unlock()
}

// writeJSON is the JSON writer: encoding/json over the response's shape.
func writeJSON(w io.Writer, v any) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		panic(err) // the response types always encode
	}
}

func componentsJSON(comps []paremsp.Component) []componentJSON {
	out := make([]componentJSON, len(comps))
	for i, c := range comps {
		out[i] = componentJSON{Label: c.Label, Area: int64(c.Area),
			BBox: [4]int{c.MinX, c.MinY, c.MaxX, c.MaxY}, Centroid: [2]float64{c.CentroidX, c.CentroidY}}
	}
	return out
}

func contoursJSON(cs []paremsp.Contour) []contourJSON {
	out := make([]contourJSON, len(cs))
	for i, c := range cs {
		pts := make([][2]int, len(c.Points))
		for j, p := range c.Points {
			pts[j] = [2]int{p.X, p.Y}
		}
		out[i] = contourJSON{Label: int32(c.Label), Points: pts}
	}
	return out
}

func statsJSON(res *band.Result) resultJSON {
	out := resultJSON{Width: res.Width, Height: res.Height, NumComponents: res.NumComponents,
		BandRows: band.DefaultBandRows, Components: make([]componentJSON, len(res.Components))}
	if px := res.Width * res.Height; px > 0 {
		out.Density = float64(res.ForegroundPixels) / float64(px)
	}
	for i, c := range res.Components {
		out.Components[i] = componentJSON{Label: c.Label, Area: c.Area,
			BBox: [4]int{c.MinX, c.MinY, c.MaxX, c.MaxY}, Centroid: [2]float64{c.CentroidX, c.CentroidY}, Runs: c.Runs}
	}
	return out
}

func phasesOf(p paremsp.PhaseTimes) *phasesJSON {
	if p.Total() == 0 {
		return nil
	}
	return &phasesJSON{p.Scan.Nanoseconds(), p.Merge.Nanoseconds(), p.Flatten.Nanoseconds(), p.Relabel.Nanoseconds()}
}

// decoded is a request body decoded as ccserve decodes it: into a raster
// borrowed from the engine's pools (the Engine call consumes it) or, for
// stats, a band reader that parses only the header up front. Exactly one
// of img, gray, vol and src is set.
type decoded struct {
	img     *paremsp.Image
	gray    *paremsp.GrayImage
	vol     *paremsp.Volume
	src     *pnm.BandReader
	w, h, d int
	density float64
}

// decode runs, as span pnm.decode, the decoder the handler picks for a
// request of the given type or job kind ("stats", "volume", "gray", else
// a binary raster).
func (rp *replay) decode(req string, parent int, kind string, b *body) (decoded, error) {
	level := b.level
	if level == 0 {
		level = 0.5 // ccserve's default -level
	}
	var d decoded
	var err error
	rp.rec.do(req, parent, "pnm.decode", func() {
		switch kind {
		case rqStats:
			if d.src, err = pnm.NewBandReaderBytes(b.data, level); err == nil {
				d.w, d.h = d.src.Width(), d.src.Height()
			}
		case rqVolume:
			d.vol = rp.eng.GetVolume()
			if err = pnm.DecodeVolumeInto(bytes.NewReader(b.data), level, d.vol); err != nil {
				rp.eng.PutVolume(d.vol)
			} else {
				d.w, d.h, d.d = d.vol.W, d.vol.H, d.vol.D
			}
		case rqGray:
			d.gray = rp.eng.GetGray()
			if err = pnm.DecodeGrayInto(bufio.NewReader(bytes.NewReader(b.data)), d.gray); err != nil {
				rp.eng.PutGray(d.gray)
			} else {
				d.w, d.h, d.density = d.gray.Width, d.gray.Height, 1
			}
		default:
			d.img = rp.eng.GetImage()
			if err = pnm.DecodeInto(bufio.NewReader(bytes.NewReader(b.data)), level, d.img); err != nil {
				rp.eng.PutImage(d.img)
			} else {
				d.w, d.h, d.density = d.img.Width, d.img.Height, d.img.Density()
			}
		}
	})
	if err != nil {
		rp.fail("replay decode %s: %v", b.r.name, err)
	}
	return d, err
}

// syncOp replays one sync request along the handler's path.
func (rp *replay) syncOp(req string, o op, out *bytes.Buffer) {
	rec := rp.rec
	root := rec.open(req, -1, "request")
	defer rec.close(root)
	out.Reset()
	b := o.b
	d, err := rp.decode(req, root, o.typ, b)
	if err != nil {
		return
	}
	switch o.typ {
	case rqStats:
		e := rec.open(req, root, "service.engine")
		res, err := rp.eng.Stats(rp.ctx, d.src, band.Options{Ctx: rp.ctx})
		rec.close(e)
		if err != nil {
			rp.fail("replay stats %s: %v", b.r.name, err)
			return
		}
		rp.noteEngine(e, "band", b.r)
		rec.do(req, root, "service.write_json", func() { writeJSON(out, statsJSON(res)) })
		rp.check(b, res.NumComponents)
	case rqVolume:
		e := rec.open(req, root, "service.engine")
		res, err := rp.eng.LabelVolume(rp.ctx, d.vol, paremsp.Options{Mode: paremsp.ModeVolume})
		rec.close(e)
		if err != nil {
			rp.fail("replay volume %s: %v", b.r.name, err)
			return
		}
		defer rp.eng.PutVolumeResult(res)
		rp.noteEngine(e, "volume", b.r)
		var sizes []int
		rec.do(req, root, "vol3d.component_sizes", func() { sizes = paremsp.VolumeComponentSizes(res.Labels, res.NumComponents) })
		rec.do(req, root, "service.write_json", func() {
			writeJSON(out, resultJSON{Width: d.w, Height: d.h, Depth: d.d, NumComponents: res.NumComponents, ComponentSizes: sizes})
		})
		rp.check(b, res.NumComponents)
	case rqGray:
		e := rec.open(req, root, "service.engine")
		res, err := rp.eng.LabelGray(rp.ctx, d.gray, paremsp.Options{Mode: paremsp.ModeGray})
		rec.close(e)
		if err != nil {
			rp.fail("replay gray %s: %v", b.r.name, err)
			return
		}
		defer rp.eng.PutResult(res)
		rp.noteEngine(e, "gray", b.r)
		var comps []paremsp.Component
		rec.do(req, root, "stats.components", func() { comps = paremsp.ComponentsOf(res.Labels) })
		rec.do(req, root, "service.write_json", func() {
			writeJSON(out, resultJSON{Width: d.w, Height: d.h, NumComponents: res.NumComponents, Density: 1, Components: componentsJSON(comps)})
		})
		rp.check(b, res.NumComponents)
	default:
		e := rec.open(req, root, "service.engine")
		res, err := rp.eng.Label(rp.ctx, d.img, paremsp.Options{Mode: paremsp.ModeBinary})
		rec.close(e)
		if err != nil {
			rp.fail("replay label %s: %v", b.r.name, err)
			return
		}
		defer rp.eng.PutResult(res)
		rp.noteEngine(e, "paremsp", b.r)
		ph := res.Phases
		rec.phases(req, e, ph.Scan, ph.Merge, ph.Flatten, ph.Relabel)
		var comps []paremsp.Component
		if o.typ == rqJSON || o.typ == rqLevel || o.typ == rqContours {
			rec.do(req, root, "stats.components", func() { comps = paremsp.ComponentsOf(res.Labels) })
		}
		var contours []paremsp.Contour
		if o.typ == rqContours {
			rec.do(req, root, "contour.trace", func() {
				contours, err = paremsp.TraceContoursCtx(rp.ctx, res.Labels, res.NumComponents)
			})
			if err != nil {
				rp.fail("replay contours %s: %v", b.r.name, err)
				return
			}
		}
		switch o.typ {
		case rqCCL:
			rec.do(req, root, "stream.write_labels", func() { err = stream.WriteLabels(out, res.Labels, res.NumComponents) })
		case rqPGM:
			rec.do(req, root, "pnm.encode_pgm", func() { err = paremsp.EncodeLabelsPGM(out, res.Labels) })
		default:
			rec.do(req, root, "service.write_json", func() {
				resp := resultJSON{Width: d.w, Height: d.h, NumComponents: res.NumComponents, Density: d.density, Phases: phasesOf(ph)}
				if comps != nil {
					resp.Components = componentsJSON(comps)
				}
				if contours != nil {
					resp.Contours = contoursJSON(contours)
				}
				writeJSON(out, resp)
			})
		}
		if err != nil {
			rp.fail("replay write %s: %v", b.r.name, err)
		}
		rp.check(b, res.NumComponents)
	}
}

// replayJob is one job of a replayed batch.
type replayJob struct {
	req     string
	root    int
	id      string
	b       *body
	existed bool
	kept    bool // the batch's repeated part, whose job the client keeps
}

// jobBatch replays one jobs-async cycle: per part, the jobs.Store create,
// the decoder and the Engine Submit (as the handler's submitJob/admitJob
// do); per job, on its own goroutine, Wait, the post-processing and the
// store's Complete; then, in completion order as the client's poll, fetch
// and delete do, the store's Get, Result, the writer and Remove (except for
// the kept job).
func (rp *replay) jobBatch(c int, seq *int, s jobSet) {
	rec := rp.rec
	kind := jobs.Kind(s.kind)
	mode := paremsp.ModeBinary
	switch kind {
	case jobs.KindGray:
		mode = paremsp.ModeGray
	case jobs.KindVolume:
		mode = paremsp.ModeVolume
	}
	const level = 0.5 // ccserve's default -level
	finished := make(chan *replayJob, len(s.parts))
	for i, b := range s.parts {
		j := &replayJob{req: fmt.Sprintf("c%d-%d", c, *seq), b: b, kept: i == len(s.parts)-1}
		*seq++
		j.root = rec.open(j.req, -1, "request")
		j.id = paremsp.JobKeyMode(kind, mode, "", 0, level, 0, b.data)
		p := jobs.Params{Level: level, ContentType: b.ctype}
		if mode != paremsp.ModeBinary {
			p.Mode = string(mode)
		}
		var job jobs.Job
		rec.do(j.req, j.root, "jobs.create", func() { job, j.existed = rp.store.CreateOrGet(j.id, kind, p, b.data) })
		if j.existed {
			finished <- j
			continue
		}
		rp.admit(j, kind, job.Gen, finished)
	}
	for range s.parts {
		j := <-finished
		var job jobs.Job
		var ok bool
		rec.do(j.req, j.root, "jobs.get", func() { job, ok = rp.store.Get(j.id) })
		if !ok || job.State != jobs.StateDone {
			rp.fail("replay job %s (%s): state %q", j.id, j.b.r.name, job.State)
			rec.close(j.root)
			continue
		}
		var res *jobs.Result
		var err error
		rec.do(j.req, j.root, "jobs.result", func() { res, err = rp.store.Result(j.id) })
		if err != nil {
			rp.fail("replay job result %s: %v", j.id, err)
			rec.close(j.root)
			continue
		}
		rec.do(j.req, j.root, "service.write_json", func() {
			var out bytes.Buffer
			switch {
			case res.Stats != nil:
				writeJSON(&out, statsJSON(res.Stats))
			case res.Labels == nil:
				writeJSON(&out, resultJSON{Width: res.Width, Height: res.Height, Depth: res.Depth,
					NumComponents: res.NumComponents, ComponentSizes: res.VolumeSizes})
			default:
				resp := resultJSON{Width: res.Width, Height: res.Height, NumComponents: res.NumComponents,
					Density: res.Density, Phases: phasesOf(res.Phases), Components: componentsJSON(res.Components)}
				if res.Contours != nil {
					resp.Contours = contoursJSON(res.Contours)
				}
				writeJSON(&out, resp)
			}
		})
		rp.check(j.b, res.NumComponents)
		if !j.kept {
			rec.do(j.req, j.root, "jobs.remove", func() { rp.store.Remove(j.id) })
		}
		rec.close(j.root)
	}
}

// admit decodes a fresh job's input and submits it to the engine; a
// goroutine waits for the outcome, post-processes it and completes the
// job, as admitJob does.
func (rp *replay) admit(j *replayJob, kind jobs.Kind, gen uint64, finished chan<- *replayJob) {
	rec := rp.rec
	b := j.b
	d, err := rp.decode(j.req, j.root, string(kind), b)
	if err != nil {
		rp.store.Fail(j.id, gen, err)
		finished <- j
		return
	}
	onStart := func() { rp.store.Start(j.id, gen) }
	kernel := "paremsp"
	var sub *service.Submitted
	if d.vol != nil {
		d.density = float64(d.vol.ForegroundCount()) / float64(len(d.vol.Vox))
	}
	e := rec.open(j.req, j.root, "service.engine")
	switch kind {
	case jobs.KindStats:
		kernel = "band"
		sub, err = rp.eng.SubmitStats(rp.ctx, d.src, band.Options{Ctx: rp.ctx}, onStart)
	case jobs.KindVolume:
		kernel = "volume"
		sub, err = rp.eng.SubmitVolume(rp.ctx, d.vol, paremsp.Options{Mode: paremsp.ModeVolume}, onStart)
	case jobs.KindGray:
		kernel = "gray"
		sub, err = rp.eng.SubmitGray(rp.ctx, d.gray, paremsp.Options{Mode: paremsp.ModeGray}, onStart)
	default:
		sub, err = rp.eng.SubmitLabel(rp.ctx, d.img, paremsp.Options{}, onStart)
	}
	if err != nil {
		rec.close(e)
		rp.fail("replay admit %s: %v", b.r.name, err)
		rp.store.Fail(j.id, gen, err)
		finished <- j
		return
	}
	rp.store.SetQueuePos(j.id, gen, sub.QueuePosition())
	go func() {
		defer func() { finished <- j }()
		res, bres, vres, err := sub.Wait()
		rec.close(e)
		if err != nil {
			rp.fail("replay job %s: %v", b.r.name, err)
			rp.store.Fail(j.id, gen, err)
			return
		}
		rp.noteEngine(e, kernel, b.r)
		jr := &jobs.Result{ResultInfo: jobs.ResultInfo{Width: d.w, Height: d.h, Depth: d.d, Density: d.density}}
		switch {
		case bres != nil:
			jr.Stats, jr.NumComponents = bres, bres.NumComponents
			if px := int64(bres.Width) * int64(bres.Height); px > 0 {
				jr.Density = float64(bres.ForegroundPixels) / float64(px)
			}
		case vres != nil:
			jr.NumComponents = vres.NumComponents
			rec.do(j.req, j.root, "vol3d.component_sizes", func() {
				jr.VolumeSizes = paremsp.VolumeComponentSizes(vres.Labels, vres.NumComponents)
			})
			rp.eng.PutVolumeResult(vres)
		default:
			ph := res.Phases
			if ph.Total() > 0 {
				rec.phases(j.req, e, ph.Scan, ph.Merge, ph.Flatten, ph.Relabel)
			}
			if kind == jobs.KindContours {
				rec.do(j.req, j.root, "contour.trace", func() {
					jr.Contours, err = paremsp.TraceContoursCtx(rp.ctx, res.Labels, res.NumComponents)
				})
				if err != nil {
					rp.fail("replay contours %s: %v", b.r.name, err)
				}
			}
			// The label map stays with the job, out of the engine pool.
			jr.Labels, jr.NumComponents, jr.Phases = res.Labels, res.NumComponents, res.Phases
			rec.do(j.req, j.root, "stats.components", func() { jr.Components = paremsp.ComponentsOf(res.Labels) })
		}
		rec.do(j.req, j.root, "jobs.complete", func() { rp.store.Complete(j.id, gen, jr) })
	}()
}

// run replays the workload for window with the given client count, after
// one untimed pass that fills the engine's pools (and, for jobs-async,
// creates each client's kept jobs).
func (rp *replay) run(clients int, window time.Duration) {
	timed := rp.rec
	for pass := 0; pass < 2; pass++ {
		rp.rec, rp.engineOf = timed, map[int]kernelRef{}
		if pass == 0 {
			rp.rec = newRecorder() // warm-up spans are dropped
		}
		deadline := time.Now().Add(window)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seq := 0
				if rp.in.jobs != nil {
					sets := rp.in.jobs[c]
					for k := c; ; k++ {
						if pass == 0 && k == c+len(sets) || pass == 1 && !time.Now().Before(deadline) {
							return
						}
						rp.jobBatch(c, &seq, sets[k%len(sets)])
					}
				}
				var out bytes.Buffer
				start := c * len(rp.in.ops) / clients
				for k := start; ; k++ {
					if pass == 0 && k == start+len(rp.in.ops) || pass == 1 && !time.Now().Before(deadline) {
						return
					}
					rp.syncOp(fmt.Sprintf("c%d-%d", c, seq), rp.in.ops[k%len(rp.in.ops)], &out)
					seq++
				}
			}()
		}
		wg.Wait()
	}
}

// kernelTimes holds the standalone runs: per configuration, the time of
// each pass over the workload's rasters, and per (kernel, raster) the
// median single-run time.
type kernelTimes struct {
	passes map[string][]float64
	each   map[kernelRef]float64
}

// standalone labels the workload's rasters outside any request with
// reused buffers: the binary rasters with PAREMSP and AREMSP on the byte
// raster and PBREMSP and BREMSP on the packed bitmap, at 1 and 2 threads
// where the algorithm is parallel; the gray rasters and volumes with the
// gray and volume labelers; and every raw-P4 body through the band
// labeler and the packed decoder. Workloads without gray rasters or
// volumes probe those labelers on their binary rasters (up to
// probeMaxPx each), as a gray raster of two levels and a one-slice volume.
func (rp *replay) standalone() kernelTimes {
	kt := kernelTimes{passes: map[string][]float64{}, each: map[kernelRef]float64{}}
	ctx := rp.ctx
	var (
		lm              paremsp.LabelMap
		sc              paremsp.Scratch
		bm              paremsp.Bitmap
		lv              paremsp.LabelVolumeMap
		bin, gray, vols []*raster
	)
	for _, r := range rp.in.rasters {
		switch {
		case r.bin != nil:
			bin = append(bin, r)
		case r.gray != nil:
			gray = append(gray, r)
		default:
			vols = append(vols, r)
		}
	}
	small := func(rs []*raster) []*raster {
		var out []*raster
		for _, r := range rs {
			if r.px <= probeMaxPx {
				out = append(out, r)
			}
		}
		return out
	}
	// measure runs f on every raster kernelRepeats times, recording a
	// standalone span per run and the pass totals under name. An untimed
	// run on the largest raster first grows the reused buffers, so no timed
	// run allocates.
	measure := func(name, kernel string, rs []*raster, f func(r *raster) (int, error)) {
		if len(rs) == 0 {
			return
		}
		largest := rs[0]
		for _, r := range rs {
			if r.px > largest.px {
				largest = r
			}
		}
		f(largest)
		runs := map[*raster][]float64{}
		for rep := 0; rep < kernelRepeats; rep++ {
			total := 0.0
			for _, r := range rs {
				id := rp.rec.open("", -1, name)
				n, err := f(r)
				rp.rec.close(id)
				d := ms(rp.rec.spans[id].dur())
				total += d
				runs[r] = append(runs[r], d)
				if err != nil {
					rp.fail("%s %s: %v", name, r.name, err)
				} else if n >= 0 && n != r.want {
					rp.fail("%s %s: %d components, oracle %d", name, r.name, n, r.want)
				}
			}
			kt.passes[name] = append(kt.passes[name], total)
		}
		if kernel != "" {
			for r, d := range runs {
				kt.each[kernelRef{kernel, r}] = median(d)
			}
		}
	}
	binary := func(alg paremsp.Algorithm, threads int) func(r *raster) (int, error) {
		return func(r *raster) (int, error) {
			res, err := paremsp.LabelIntoCtx(ctx, r.bin, &lm, &sc, paremsp.Options{Algorithm: alg, Threads: threads})
			if err != nil {
				return 0, err
			}
			return res.NumComponents, nil
		}
	}
	bitmaps := map[*raster]*paremsp.Bitmap{}
	for _, r := range bin {
		bitmaps[r] = &paremsp.Bitmap{}
		bitmaps[r].FromImage(r.bin)
	}
	packed := func(alg paremsp.Algorithm, threads int) func(r *raster) (int, error) {
		return func(r *raster) (int, error) {
			res, err := paremsp.LabelBitmapIntoCtx(ctx, bitmaps[r], &lm, &sc, paremsp.Options{Algorithm: alg, Threads: threads})
			if err != nil {
				return 0, err
			}
			return res.NumComponents, nil
		}
	}
	// The Engine built from service.Config{} runs GOMAXPROCS workers with
	// GOMAXPROCS/workers = 1 thread per labeling: t1 is its kernel.
	measure("core.paremsp.t1", "paremsp", bin, binary(paremsp.AlgPAREMSP, 1))
	measure("core.paremsp.t2", "", bin, binary(paremsp.AlgPAREMSP, 2))
	measure("core.aremsp.t1", "", bin, binary(paremsp.AlgAREMSP, 1))
	measure("core.pbremsp.t1", "", bin, packed(paremsp.AlgPBREMSP, 1))
	measure("core.pbremsp.t2", "", bin, packed(paremsp.AlgPBREMSP, 2))
	measure("core.bremsp.t1", "", bin, packed(paremsp.AlgBREMSP, 1))

	grayOf := map[*raster]*paremsp.GrayImage{}
	if len(gray) == 0 {
		for _, r := range small(bin) {
			g := paremsp.NewGrayImage(r.bin.Width, r.bin.Height)
			for i, v := range r.bin.Pix {
				g.Pix[i] = 255 * v
			}
			grayOf[r] = g
			gray = append(gray, r)
		}
	}
	measure("grayccl.label", "gray", gray, func(r *raster) (int, error) {
		g := r.gray
		if g == nil {
			g = grayOf[r]
		}
		res, err := paremsp.LabelGrayIntoCtx(ctx, g, &lm, &sc, paremsp.Options{Mode: paremsp.ModeGray, Threads: 1})
		if err != nil || r.gray == nil {
			return -1, err // a two-level probe has its own component count
		}
		return res.NumComponents, nil
	})
	volOf := map[*raster]*paremsp.Volume{}
	if len(vols) == 0 {
		for _, r := range small(bin) {
			volOf[r] = &paremsp.Volume{W: r.bin.Width, H: r.bin.Height, D: 1, Vox: r.bin.Pix}
			vols = append(vols, r)
		}
	}
	measure("vol3d.label", "volume", vols, func(r *raster) (int, error) {
		v := r.vol
		if v == nil {
			v = volOf[r]
		}
		res, err := paremsp.LabelVolumeIntoCtx(ctx, v, &lv, &sc, paremsp.Options{Mode: paremsp.ModeVolume, Threads: 1})
		if err != nil || r.vol == nil {
			return -1, err // a one-slice volume is 26- not 8-connected
		}
		return res.NumComponents, nil
	})
	p4Of := map[*raster]*body{}
	var p4 []*raster
	for _, b := range rp.in.p4 {
		if p4Of[b.r] == nil {
			p4Of[b.r] = b
			p4 = append(p4, b.r)
		}
	}
	measure("band.stream", "band", p4, func(r *raster) (int, error) {
		src, err := pnm.NewBandReaderBytes(p4Of[r].data, 0.5)
		if err != nil {
			return 0, err
		}
		res, err := band.Stream(src, band.Options{Ctx: ctx})
		if err != nil {
			return 0, err
		}
		return res.NumComponents, nil
	})
	measure("pnm.decode_packed", "", p4, func(r *raster) (int, error) {
		return -1, pnm.DecodePBMBitmapInto(bytes.NewReader(p4Of[r].data), &bm)
	})
	return kt
}

// probe times the request-path layers the workload never calls on the
// request path (e.g. label-large asks for no components, no encoded label
// map and no jobs) on its binary rasters up to probeMaxPx, labeled with
// the service's default algorithm, so every per-layer metric is measured
// on every workload. A durable jobs.Store in dir stands in for the jobs
// layer.
func (rp *replay) probe(dir string) error {
	missing := func(name string) bool { return len(rp.rec.durations(name, true)) == 0 }
	var store *jobs.Store
	if missing("jobs.create") {
		var err error
		if store, err = jobs.Open(jobs.Options{Backend: jobs.BackendSQLite, Dir: dir}); err != nil {
			return fmt.Errorf("opening probe job store: %w", err)
		}
		defer store.Close()
	}
	rec := rp.rec
	var out bytes.Buffer
	for _, r := range rp.in.rasters {
		if r.bin == nil || r.px > probeMaxPx {
			continue
		}
		res, err := paremsp.LabelIntoCtx(rp.ctx, r.bin, nil, nil, paremsp.Options{Threads: 1})
		if err != nil {
			return err
		}
		var comps []paremsp.Component
		rec.do("", -1, "stats.components", func() { comps = paremsp.ComponentsOf(res.Labels) })
		var errs [3]error
		if missing("contour.trace") {
			rec.do("", -1, "contour.trace", func() { _, errs[0] = paremsp.TraceContoursCtx(rp.ctx, res.Labels, res.NumComponents) })
		}
		out.Reset()
		rec.do("", -1, "stream.write_labels", func() { errs[1] = stream.WriteLabels(&out, res.Labels, res.NumComponents) })
		out.Reset()
		rec.do("", -1, "pnm.encode_pgm", func() { errs[2] = paremsp.EncodeLabelsPGM(&out, res.Labels) })
		if err := errors.Join(errs[:]...); err != nil {
			return err
		}
		if store == nil {
			continue
		}
		var data []byte
		for _, b := range rp.in.p4 {
			if b.r == r {
				data = b.data
			}
		}
		id := paremsp.JobKeyMode(jobs.KindLabels, paremsp.ModeBinary, "", 0, 0.5, 0, data)
		var job jobs.Job
		rec.do("", -1, "jobs.create", func() {
			job, _ = store.CreateOrGet(id, jobs.KindLabels, jobs.Params{Level: 0.5, ContentType: ctPBM}, data)
		})
		store.Start(id, job.Gen)
		jr := &jobs.Result{ResultInfo: jobs.ResultInfo{Width: r.bin.Width, Height: r.bin.Height, NumComponents: res.NumComponents},
			Labels: res.Labels, Components: comps}
		rec.do("", -1, "jobs.complete", func() { store.Complete(id, job.Gen, jr) })
		rec.do("", -1, "jobs.get", func() { job, _ = store.Get(id) })
		rec.do("", -1, "jobs.result", func() { _, err = store.Result(id) })
		rec.do("", -1, "jobs.remove", func() { store.Remove(id) })
		if err != nil {
			return fmt.Errorf("probe job result: %w", err)
		}
		if job.State != jobs.StateDone {
			return fmt.Errorf("probe job %s: state %q", id, job.State)
		}
	}
	return nil
}

// traced replays the workload in-process for window with the given
// client count, then runs the standalone kernels and the probes. Each
// phase starts from a collected heap, so this process's GC (the replayed
// layers and the standalone kernels share it) does not carry garbage from
// one phase into the next.
func traced(ctx context.Context, in *inputs, clients int, window time.Duration, runDir string) (*replay, kernelTimes, error) {
	debug.FreeOSMemory()
	rp := &replay{ctx: ctx, in: in, rec: newRecorder()}
	rp.eng = service.NewEngine(service.Config{})
	if in.jobs != nil {
		dir := filepath.Join(runDir, "replay-jobs")
		store, err := jobs.Open(jobs.Options{Backend: jobs.BackendSQLite, Dir: dir})
		if err != nil {
			return nil, kernelTimes{}, fmt.Errorf("opening replay job store: %w", err)
		}
		defer os.RemoveAll(dir)
		defer store.Close()
		rp.store = store
	}
	rp.run(clients, window)
	rp.eng.Close()
	rp.eng = nil // drop its pooled rasters
	debug.FreeOSMemory()
	kt := rp.standalone()
	dir := filepath.Join(runDir, "probe-jobs")
	defer os.RemoveAll(dir)
	if err := rp.probe(dir); err != nil {
		return nil, kernelTimes{}, err
	}
	return rp, kt, nil
}
