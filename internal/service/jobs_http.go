package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
)

// The asynchronous job API. POST /v1/jobs accepts a single image body (the
// same formats /v1/label takes) or a multipart/form-data batch of images,
// creates one job per image and answers 202 immediately; clients then poll
// GET /v1/jobs/{id}, fetch GET /v1/jobs/{id}/result once the job is done,
// and DELETE /v1/jobs/{id} when they no longer need the result (otherwise
// the store's TTL evicts it).
//
// Jobs are deduplicated by content hash: an identical submission — same
// input bytes, algorithm, connectivity, binarization level and output kind
// — returns the existing job's ID with "dedup": true instead of
// recomputing, whether that job is still queued, running, or already done.
// Failed jobs do not dedup, so a client may retry a failed submission.

// jobJSON is the wire form of a job in submit responses and status bodies.
type jobJSON struct {
	ID            string        `json:"id,omitempty"`
	Kind          string        `json:"kind,omitempty"`
	State         string        `json:"state"`
	Dedup         bool          `json:"dedup,omitempty"`
	QueuePosition int           `json:"queue_position,omitempty"`
	Error         string        `json:"error,omitempty"`
	CreatedAt     *time.Time    `json:"created_at,omitempty"`
	StartedAt     *time.Time    `json:"started_at,omitempty"`
	FinishedAt    *time.Time    `json:"finished_at,omitempty"`
	ExpiresAt     *time.Time    `json:"expires_at,omitempty"`
	Width         int           `json:"width,omitempty"`
	Height        int           `json:"height,omitempty"`
	Depth         int           `json:"depth,omitempty"`
	NumComponents int           `json:"num_components,omitempty"`
	Phases        *phasesJSON   `json:"phases,omitempty"`
	Trace         *jobTraceJSON `json:"trace,omitempty"`
}

// jobTraceJSON is the span-like timing breakdown embedded in a started
// job's status: where the job's wall time went, from submission through
// queue wait, decode, the labeling run (with per-phase splits via the
// sibling phases object) to completion, and the thread count the labeling
// ran with. It is derived from the store's transition timestamps and the
// result summary, so it needs no extra bookkeeping on the hot path.
type jobTraceJSON struct {
	QueueWaitNs int64 `json:"queue_wait_ns"`
	DecodeNs    int64 `json:"decode_ns,omitempty"`
	RunNs       int64 `json:"run_ns,omitempty"`
	TotalNs     int64 `json:"total_ns,omitempty"`
	Threads     int   `json:"threads,omitempty"`
}

type jobsSubmitResponse struct {
	Jobs []jobJSON `json:"jobs"`
}

// maxBatchParts bounds one multipart submission. Together with the shared
// -max-bytes body cap it bounds how many store entries a single request
// can create (a boundary line costs only tens of bytes, so the byte cap
// alone would admit millions of empty parts).
const maxBatchParts = 256

func jobJSONFrom(j jobs.Job, dedup bool) jobJSON {
	out := jobJSON{
		ID:            j.ID,
		Kind:          string(j.Kind),
		State:         string(j.State),
		Dedup:         dedup,
		QueuePosition: j.QueuePos,
		Error:         j.Err,
	}
	if !j.Created.IsZero() {
		out.CreatedAt = &j.Created
	}
	if !j.Started.IsZero() {
		out.StartedAt = &j.Started
	}
	if !j.Finished.IsZero() {
		out.FinishedAt = &j.Finished
	}
	if !j.ExpiresAt.IsZero() {
		out.ExpiresAt = &j.ExpiresAt
	}
	if !j.Started.IsZero() {
		tr := &jobTraceJSON{QueueWaitNs: j.Started.Sub(j.Created).Nanoseconds()}
		if !j.Finished.IsZero() {
			tr.RunNs = j.Finished.Sub(j.Started).Nanoseconds()
			tr.TotalNs = j.Finished.Sub(j.Created).Nanoseconds()
		}
		out.Trace = tr
	}
	if info := j.Info; info != nil {
		out.Width, out.Height, out.NumComponents = info.Width, info.Height, info.NumComponents
		out.Depth = info.Depth
		if out.Trace != nil {
			out.Trace.DecodeNs, out.Trace.Threads = info.DecodeNs, info.Threads
		}
		out.Phases = phasesJSONFrom(info.Phases)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// batchSizeError writes the failure for a multipart read error, wording
// the over-cap case for the whole batch (writeErr's message is
// per-image).
func (h *Handler) batchSizeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
			fmt.Sprintf("batch exceeds %d bytes in total (all parts share one -max-bytes cap; split the batch)",
				tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
}

// jobsSubmit handles POST /v1/jobs. Query parameters: kind (labels —
// default — stats, contours, gray, or volume), plus the shared spec
// parameters (alg, threads, conn, level, mode, delta, band). When kind is
// absent it follows the spec — mode=gray|gray-delta selects gray jobs,
// mode=volume volume jobs, contours=true contours jobs. A body of
// Content-Type multipart/form-data is a batch: every part is one payload
// and gets its own job; anything else is a single payload. Payloads that
// fail to decode still become jobs — ones that fail immediately,
// observable via their status — so one bad image never voids the rest of
// a batch.
func (h *Handler) jobsSubmit(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		h.rejectDraining(w)
		return
	}
	spec, err := h.parseSpec(r)
	if err != nil {
		h.writeErr(w, err)
		return
	}

	mediatype := ""
	params := map[string]string{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, p, err := mime.ParseMediaType(ct); err == nil {
			mediatype, params = mt, p
		}
	}

	// One MaxBytesReader caps the whole submission — for a batch, all
	// parts together — because every payload is buffered in memory before
	// its job is created; a per-part cap would let one request pin
	// parts x -max-bytes. Batches larger than the cap must be split.
	type payload struct {
		ct   string
		data []byte
	}
	var payloads []payload
	body := http.MaxBytesReader(w, r.Body, h.maxBytes)
	if mediatype == "multipart/form-data" {
		mr := multipart.NewReader(body, params["boundary"])
		for {
			p, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				h.batchSizeError(w, err)
				return
			}
			if len(payloads) == maxBatchParts {
				p.Close()
				writeError(w, http.StatusBadRequest, codeInvalidArgument,
					fmt.Sprintf("batch has more than %d parts; split it", maxBatchParts))
				return
			}
			b, err := io.ReadAll(p)
			p.Close()
			if err != nil {
				h.batchSizeError(w, err)
				return
			}
			payloads = append(payloads, payload{ct: p.Header.Get("Content-Type"), data: b})
		}
		if len(payloads) == 0 {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "empty batch: no multipart parts")
			return
		}
	} else {
		b, err := io.ReadAll(body)
		if err != nil {
			h.writeErr(w, err)
			return
		}
		if len(b) == 0 {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "empty request body")
			return
		}
		payloads = []payload{{ct: r.Header.Get("Content-Type"), data: b}}
	}

	resp := jobsSubmitResponse{Jobs: make([]jobJSON, len(payloads))}
	full, closed := 0, 0
	for i, b := range payloads {
		p := spec.params
		p.ContentType = b.ct
		entry, shedErr := h.submitJob(b.data, spec.kind, p)
		resp.Jobs[i] = entry
		switch {
		case errors.Is(shedErr, ErrQueueFull):
			full++
		case errors.Is(shedErr, ErrClosed):
			closed++
		}
	}
	if full+closed == len(resp.Jobs) {
		// Every image was shed: answer like the synchronous endpoints —
		// 503 on shutdown, 429 with a backoff hint on backpressure.
		if closed > 0 {
			h.writeErr(w, ErrClosed)
		} else {
			h.writeErr(w, ErrQueueFull)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// submitJob creates (or dedups to) the job for one payload and hands new
// work to the engine via admitJob. shedErr is non-nil (ErrQueueFull or
// ErrClosed) when the engine rejected the payload; the job is then marked
// failed — not removed, since a concurrent identical submission may
// already have dedup'd to its ID — and failed jobs are replaced on
// resubmission.
func (h *Handler) submitJob(body []byte, kind jobs.Kind, p jobs.Params) (entry jobJSON, shedErr error) {
	// paremsp.JobKeyMode owns the key normalization (default algorithm,
	// the mode's connectivity, the delta slot for gray-delta jobs, level
	// zeroed where binarization cannot matter), so client-side precomputed
	// IDs match the server's and equivalent submissions dedup.
	id := paremsp.JobKeyMode(kind, paremsp.Mode(p.Mode), paremsp.Algorithm(p.Alg), p.Conn, p.Level, p.Delta, body)
	j, existed := h.jobs.CreateOrGet(id, kind, p, body)
	if existed {
		return jobJSONFrom(j, true), nil
	}
	if err := h.admitJob(id, j.Gen, kind, body, p); err != nil {
		// Decode failure, queue backpressure or shutdown: fail the
		// placeholder rather than removing it — a concurrent identical
		// submission may already hold this ID, and a failed job is
		// observable (then replaced on retry) where a vanished one would
		// 404. Only engine rejections count as shed for the batch verdict.
		h.jobs.Fail(id, j.Gen, err)
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
			shedErr = err
		}
	}
	j, _ = h.jobs.Get(id)
	return jobJSONFrom(j, false), shedErr
}

// admitJob decodes one job's payload and admits it to the engine queue,
// with a completion goroutine that lands the terminal state in the store.
// It is the shared admission path for fresh submissions and for recovery
// resubmission after a restart (RecoverJobs), which is why it takes the
// store-journaled Params rather than parsed request state — the same
// decode and finish a synchronous request runs, with the store attached.
// It does not transition the job on error — callers decide between Fail
// (submission) and Cancel (recovery).
//
// The job's lifetime exceeds the HTTP request's, so it runs under the
// server-lifetime base context — not the request's, which dies when the
// 202 is written, and not Background, which a drain could never cancel —
// bounded by -job-timeout when configured. The context is always
// cancelable and registered with the store, so DELETE on a queued or
// running job aborts the computation and releases its worker. Every
// transition targets this entry's generation, so if the job is deleted
// and recreated under the same ID these callbacks cannot touch the
// replacement.
func (h *Handler) admitJob(id string, gen uint64, kind jobs.Kind, body []byte, p jobs.Params) error {
	decodeStart := time.Now()
	d, err := h.decode(kind, p, bytes.NewReader(body))
	if err != nil {
		return err
	}
	d.info.DecodeNs = time.Since(decodeStart).Nanoseconds()
	jctx, jcancel := context.WithCancel(h.baseCtx)
	if h.jobTimeout > 0 {
		jctx, jcancel = context.WithTimeout(h.baseCtx, h.jobTimeout)
	}
	// Counted before the job can run, so WaitJobs cannot miss a completion
	// that is about to start.
	h.pending.Add(1)
	sub, err := h.engine.submit(jctx, d.task, options(p), func() { h.jobs.Start(id, gen) })
	if err != nil {
		h.pending.Done()
		jcancel()
		return err
	}
	// Registered after a successful submit: the store now owns firing
	// jcancel on DELETE, and drops the registration on any terminal
	// transition.
	h.jobs.RegisterCancel(id, gen, jcancel)
	h.jobs.SetQueuePos(id, gen, sub.QueuePosition())

	go func() {
		defer h.pending.Done()
		// Contours are traced under jctx — still live here, and fired by
		// DELETE or the job timeout — so an abandoned contours job stops
		// tracing too. Component statistics are computed once here, so
		// result fetches serve them without rescanning the raster.
		res, err := h.finish(jctx, kind, d.info, <-sub.done, true)
		// Release the timeout timer only after the outcome is in: jctx must
		// stay live while the job sits in the queue and runs.
		jcancel()
		switch {
		case err == nil:
			h.jobs.Complete(id, gen, res)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// A context error is a cancellation (client gave up via timeout,
			// DELETE canceled the job, or the server drained), not a
			// computation failure; land the job in the canceled terminal
			// state so clients and metrics can tell the two apart.
			// Resubmitting a canceled job re-runs it.
			h.jobs.Cancel(id, gen, err)
		default:
			h.jobs.Fail(id, gen, err)
		}
	}()
	return nil
}

// RecoverJobs resubmits every queued job the durable store replayed from
// its journal — including jobs that were running when the process died,
// which replay as queued — through the normal admission path. Jobs whose
// input is gone or that the engine refuses are canceled with a "recovery:"
// reason, a documented terminal state clients can observe. It returns how
// many jobs were requeued and how many canceled; on the memory backend
// both are zero. Call it after the engine is up and before serving.
func (h *Handler) RecoverJobs() (requeued, canceled int) {
	return h.jobs.Recover(func(j jobs.Job, input []byte) error {
		return h.admitJob(j.ID, j.Gen, j.Kind, input, j.Params)
	})
}

// jobStatus handles GET /v1/jobs/{id}: the job's state, timestamps, queue
// position at admission, and — once done — its dimensions and per-phase
// timings.
func (h *Handler) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := h.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, jobJSONFrom(j, false))
}

// jobResult handles GET /v1/jobs/{id}/result. Done labels, contours and
// gray jobs render in the negotiated format (JSON statistics, PGM/PNG
// label map, or a CCL1 stream; contours jobs carry their boundary
// polylines in JSON); done stats and volume jobs are JSON only.
// ?components=false omits the per-component statistics or volume sizes,
// as on the synchronous endpoints. Any other state answers 409 with the
// status body, so pollers can distinguish "not yet" from "never existed"
// (404).
func (h *Handler) jobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := h.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	if j.State != jobs.StateDone {
		writeJSON(w, http.StatusConflict, jobJSONFrom(j, false))
		return
	}
	// The payload lives in the store's blob backend (RAM, or disk when the
	// durable backend spilled it), not on the job snapshot.
	res, err := h.jobs.Result(j.ID)
	if err != nil {
		if errors.Is(err, jobs.ErrNoBlob) {
			// The job was evicted or deleted between the Get and the fetch.
			writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, fmt.Sprintf("read result: %v", err))
		return
	}
	accept, err := acceptFor(j.Kind, r.Header.Get("Accept"))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	comps, err := h.componentsParam(r.URL.Query())
	if err != nil {
		h.writeErr(w, err)
		return
	}
	if !comps {
		// The stored result is shared; render a copy without the lists.
		cp := *res
		cp.Components, cp.VolumeSizes = nil, nil
		res = &cp
	}
	writeResult(w, accept, res)
}

// jobDelete handles DELETE /v1/jobs/{id}: the job and its retained result
// are dropped immediately instead of waiting for TTL eviction. Deleting a
// queued or running job also cancels its computation — the store fires the
// context registered at admission, so a queued job never reaches a worker
// and a running one aborts at its next cancellation poll, releasing the
// worker for other requests.
func (h *Handler) jobDelete(w http.ResponseWriter, r *http.Request) {
	if !h.jobs.Remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
