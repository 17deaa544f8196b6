package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/dataset"
	"repro/internal/jobs"
)

// blockFirstRun gates eng so the first labeling parks on its context
// (simulating a labeling that reached a poll point and saw the cancellation)
// and every later one runs for real. started receives one value per parked
// call.
func blockFirstRun(eng *Engine, started chan<- struct{}) {
	var calls atomic.Int32
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		if calls.Add(1) == 1 {
			started <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
}

// TestEngineLabelCancelMidRun cancels a labeling that is already on a
// worker: Label must return the context error promptly, the worker must be
// released for new work, and the pooled buffers must still produce a
// correct labeling on the very next request.
func TestEngineLabelCancelMidRun(t *testing.T) {
	eng := NewEngine(Config{Workers: 1, Threads: 1})
	defer eng.Close()
	started := make(chan struct{}, 1)
	blockFirstRun(eng, started)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.Label(ctx, testImage(t), paremsp.Options{})
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Label after cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Label did not return after cancellation")
	}

	// The single worker must be free again, and the recycled LabelMap and
	// Scratch must not leak state from the aborted run.
	res, err := eng.Label(context.Background(), testImage(t), paremsp.Options{})
	if err != nil {
		t.Fatalf("follow-up Label: %v", err)
	}
	if res.NumComponents != 5 {
		t.Fatalf("follow-up NumComponents = %d, want 5 (stale pooled state?)", res.NumComponents)
	}
	eng.PutResult(res)
}

// TestLabelRequestTimeout504: a synchronous request that outlives
// -request-timeout is canceled server-side and answered 504; the next
// request on the same (single) worker succeeds.
func TestLabelRequestTimeout504(t *testing.T) {
	eng, srv := newTestServer(t, Config{Workers: 1, Threads: 1},
		HandlerConfig{RequestTimeout: 50 * time.Millisecond})
	started := make(chan struct{}, 1)
	blockFirstRun(eng, started)

	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("body %q does not mention the deadline", body)
	}

	resp = post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200 (worker not released?)", resp.StatusCode)
	}
}

// TestMultiPassRequestTimeoutFreesWorker: a multipass labeling that
// outlives -request-timeout stops at its next row-block poll and frees the
// only worker, so the timed-out request answers 504 and the next unpinned
// request 200 within a second. Uncanceled, multipass labels this
// 1024x1024 serpentine in about 5 s on a 2-vCPU host.
func TestMultiPassRequestTimeoutFreesWorker(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{RequestTimeout: 200 * time.Millisecond})
	serpentine := pbmBody(t, dataset.Serpentine(1024, 1024, 1, 1))
	resp := post(t, srv.URL+"/v1/label?alg=multipass&components=false", ctPBM, ctJSON, serpentine)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("multipass status = %d, want 504", resp.StatusCode)
	}
	start := time.Now()
	resp = post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if d := time.Since(start); resp.StatusCode != http.StatusOK || d > time.Second {
		t.Fatalf("next request: status %d after %v, want 200 within 1s (worker still held?)", resp.StatusCode, d)
	}
}

// TestDrainLifecycle drives the full drain contract over HTTP: before the
// drain everything admits; after StartDrain, /healthz flips to 503
// "draining", every admission endpoint sheds with 503 + Retry-After while
// read endpoints keep answering, and Engine.Drain finishes promptly when
// the running job completes.
func TestDrainLifecycle(t *testing.T) {
	store := newTestJobStore(t, jobs.Options{TTL: time.Hour})
	eng := NewEngine(Config{Workers: 1, Threads: 1})
	h := NewHandler(eng, HandlerConfig{Jobs: store})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
		store.Close()
	})

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthy healthz = %d %q, want 200 ok", code, body)
	}

	// Park a job on the worker so the drain has something to wait for.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls atomic.Int32
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		if calls.Add(1) == 1 {
			started <- struct{}{}
			<-release
		}
		return nil
	}
	inflight := make(chan *http.Response, 1)
	go func() {
		inflight <- post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	}()
	<-started

	h.StartDrain()
	if !h.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, body)
	}
	for _, ep := range []string{"/v1/label", "/v1/stats", "/v1/jobs"} {
		resp := post(t, srv.URL+ep, ctPBM, ctJSON, pbmBody(t, testImage(t)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s during drain = %d, want 503", ep, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s during drain has no Retry-After", ep)
		}
	}
	// Read endpoints stay up during the drain window.
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics during drain = %d, want 200", code)
	}

	// The in-flight request is still running; let it finish and assert the
	// drain completes promptly and the client got its full response.
	drained := make(chan bool, 1)
	go func() { drained <- eng.Drain(10 * time.Second) }()
	close(release)
	select {
	case ok := <-drained:
		if !ok {
			t.Fatal("Drain timed out despite the job finishing")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned")
	}
	resp := <-inflight
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d (%s), want 200", resp.StatusCode, b)
	}
}

// TestDrainRejectsQueuedJobs: jobs sitting in the queue when the drain
// begins are rejected with context.Canceled instead of running.
func TestDrainRejectsQueuedJobs(t *testing.T) {
	eng := NewEngine(Config{Workers: 1, QueueDepth: 2, Threads: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls atomic.Int32
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		if calls.Add(1) == 1 {
			started <- struct{}{}
			<-release
		}
		return nil
	}

	// One job on the worker, one parked in the queue.
	running, err := eng.SubmitLabel(context.Background(), testImage(t), paremsp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := eng.SubmitLabel(context.Background(), testImage(t), paremsp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan bool, 1)
	go func() { drained <- eng.Drain(10 * time.Second) }()
	// Only release the worker once the drain has begun, so the queued job is
	// guaranteed to be dequeued under drain mode.
	for !eng.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if ok := <-drained; !ok {
		t.Fatal("Drain timed out")
	}
	if res, _, _, err := running.Wait(); err != nil {
		t.Fatalf("running job failed during drain: %v", err)
	} else {
		eng.PutResult(res)
	}
	if _, _, _, err := queued.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job err = %v, want context.Canceled", err)
	}
	if _, err := eng.Label(context.Background(), testImage(t), paremsp.Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain Label err = %v, want ErrClosed", err)
	}
	eng.Close()
}

// TestWorkerPanicIsolation: a panicking labeling answers 500, increments
// worker_panics_total, reports through OnPanic with a stack, and leaves the
// worker alive for the next request.
func TestWorkerPanicIsolation(t *testing.T) {
	type panicReport struct {
		v     any
		stack string
	}
	reports := make(chan panicReport, 1)
	eng := NewEngine(Config{Workers: 1, Threads: 1, OnPanic: func(v any, stack []byte) {
		reports <- panicReport{v: v, stack: string(stack)}
	}})
	srv := httptest.NewServer(NewHandler(eng, HandlerConfig{}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	var calls atomic.Int32
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		if calls.Add(1) == 1 {
			panic("labeling exploded")
		}
		return nil
	}

	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "worker panicked") {
		t.Fatalf("body %q does not identify the panic", body)
	}
	select {
	case r := <-reports:
		if r.v != "labeling exploded" {
			t.Fatalf("OnPanic value = %v", r.v)
		}
		if !strings.Contains(r.stack, "(*Engine).compute(") {
			t.Fatalf("OnPanic stack does not show the compute frame:\n%s", r.stack)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnPanic was never called")
	}
	if got := eng.Snapshot().Panics; got != 1 {
		t.Fatalf("Snapshot.Panics = %d, want 1", got)
	}

	// The worker survived and its quarantined buffers were replaced.
	resp = post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200 (worker died?)", resp.StatusCode)
	}

	// And the metric is on the exposition surface.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "ccserve_worker_panics_total 1") {
		t.Fatal("/metrics does not report ccserve_worker_panics_total 1")
	}
}

// TestJobTimeoutCancelsAndResubmitReruns: an async job that exceeds
// -job-timeout lands in the canceled terminal state (not failed), and a
// resubmission of the identical payload replaces it instead of deduping.
func TestJobTimeoutCancelsAndResubmitReruns(t *testing.T) {
	store := newTestJobStore(t, jobs.Options{TTL: time.Hour})
	eng := NewEngine(Config{Workers: 1, Threads: 1})
	srv := httptest.NewServer(NewHandler(eng, HandlerConfig{
		Jobs:       store,
		JobTimeout: 50 * time.Millisecond,
	}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
		store.Close()
	})
	started := make(chan struct{}, 1)
	blockFirstRun(eng, started)

	body := pbmBody(t, testImage(t))
	first := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body).Jobs[0]
	<-started
	got := pollJob(t, srv.URL, first.ID, string(jobs.StateCanceled))
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("canceled job error %q does not mention the deadline", got.Error)
	}

	second := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body).Jobs[0]
	if second.Dedup {
		t.Fatal("resubmission deduped to a canceled job")
	}
	if second.ID != first.ID {
		t.Fatalf("resubmission ID %q != original %q (content hash changed?)", second.ID, first.ID)
	}
	done := pollJob(t, srv.URL, second.ID, string(jobs.StateDone))
	if done.NumComponents != 5 {
		t.Fatalf("rerun NumComponents = %d, want 5", done.NumComponents)
	}
}

// TestJobDrainCancelsViaBaseContext: canceling the handler's BaseContext —
// ccserve's force-cancel step after a drain timeout — cancels both the
// queued async job (rejected at its worker precheck) and the running one
// (stopped at its next poll point); both land in the canceled state.
func TestJobDrainCancelsViaBaseContext(t *testing.T) {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	store := newTestJobStore(t, jobs.Options{TTL: time.Hour})
	eng := NewEngine(Config{Workers: 1, QueueDepth: 2, Threads: 1})
	srv := httptest.NewServer(NewHandler(eng, HandlerConfig{
		Jobs:        store,
		BaseContext: baseCtx,
	}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
		store.Close()
	})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls atomic.Int32
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		if calls.Add(1) == 1 {
			started <- struct{}{}
			<-release
		}
		return nil
	}

	// First job occupies the worker; the second sits in the queue with the
	// base context as its lifetime.
	blocker := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, testImage(t))).Jobs[0]
	<-started
	big, err := paremsp.ParseImage("#.#\n.#.\n#.#")
	if err != nil {
		t.Fatal(err)
	}
	queued := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, big)).Jobs[0]

	baseCancel() // the force-cancel
	close(release)
	pollJob(t, srv.URL, queued.ID, string(jobs.StateCanceled))
	pollJob(t, srv.URL, blocker.ID, string(jobs.StateCanceled))
}

// TestJobDeleteReleasesWorker pins the DELETE-cancellation contract:
// deleting a queued or running job cancels its computation, not just the
// bookkeeping. One worker: job A parks on its context mid-run, job B
// queues behind it. Deleting B then A must unblock the worker without
// ever running B, and the next synchronous request must find the worker
// free — before cancel-on-Remove, A burned the worker until its context
// timed out and B ran pointlessly afterwards.
func TestJobDeleteReleasesWorker(t *testing.T) {
	eng, _, srv := newJobsServer(t, Config{Workers: 1, Threads: 1}, jobs.Options{TTL: time.Hour})
	started := make(chan struct{}, 1)
	var runs atomic.Int32
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		if runs.Add(1) == 1 {
			started <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}

	a := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, testImage(t))).Jobs[0]
	<-started
	b := submitJobs(t, srv.URL+"/v1/jobs?conn=4", ctPBM, pbmBody(t, testImage(t))).Jobs[0]
	if a.ID == b.ID {
		t.Fatal("connectivity did not split the job key")
	}

	for _, id := range []string{b.ID, a.ID} {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s = %d, want 204", id, resp.StatusCode)
		}
	}

	// Deleting A fired its context, so the parked run returns and releases
	// the single worker; B's dead context makes the worker skip it without
	// running. If DELETE did not cancel, this request would wait on the
	// worker until the test timeout.
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up label = %d, want 200 (worker not released?)", resp.StatusCode)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("run called %d times, want 2 (parked A + follow-up; deleted queued B must never run)", got)
	}
}
