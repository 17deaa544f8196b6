package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
)

// newTestJobStore builds a job store for a test, honoring
// CCSERVE_TEST_JOB_STORE=disk so CI can run the whole service suite
// against the durable backend; unset or "memory" keeps the in-memory
// default.
func newTestJobStore(t *testing.T, jopt jobs.Options) *jobs.Store {
	t.Helper()
	if b := os.Getenv("CCSERVE_TEST_JOB_STORE"); b != "" {
		jopt.Backend = b
	}
	if jopt.Backend != "" && jopt.Backend != jobs.BackendMemory {
		jopt.Dir = t.TempDir()
	}
	store, err := jobs.Open(jopt)
	if err != nil {
		t.Fatalf("open job store: %v", err)
	}
	return store
}

// newJobsServer is newTestServer with the async job API enabled.
func newJobsServer(t *testing.T, ecfg Config, jopt jobs.Options) (*Engine, *jobs.Store, *httptest.Server) {
	t.Helper()
	store := newTestJobStore(t, jopt)
	eng := NewEngine(ecfg)
	h := NewHandler(eng, HandlerConfig{Jobs: store})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
		h.WaitJobs()
		store.Close()
	})
	return eng, store, srv
}

// submitJobs POSTs body to /v1/jobs and decodes the 202 response.
func submitJobs(t *testing.T, url, contentType string, body []byte) jobsSubmitResponse {
	t.Helper()
	resp := post(t, url, contentType, ctJSON, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, b)
	}
	var out jobsSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) == 0 {
		t.Fatal("submit response listed no jobs")
	}
	return out
}

// getJobStatus fetches GET /v1/jobs/{id}, reporting the HTTP status too.
func getJobStatus(t *testing.T, base, id string) (jobJSON, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return jobJSON{}, resp.StatusCode
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j, resp.StatusCode
}

// pollJob polls the status endpoint until the job reaches wantState. An
// unexpected failed state aborts the test with the job's error.
func pollJob(t *testing.T, base, id, wantState string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, code := getJobStatus(t, base, id)
		if code == http.StatusOK {
			if j.State == wantState {
				return j
			}
			if j.State == string(jobs.StateFailed) && wantState != string(jobs.StateFailed) {
				t.Fatalf("job %s failed: %s", id, j.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %q (last status %d, state %q)", id, wantState, code, j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// multipartBody builds a multipart/form-data batch, one file part per image.
func multipartBody(t *testing.T, parts ...[]byte) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, p := range parts {
		fw, err := mw.CreateFormFile(fmt.Sprintf("image%d", i), fmt.Sprintf("img%d.pbm", i))
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(p)
	}
	mw.Close()
	return mw.FormDataContentType(), buf.Bytes()
}

func TestJobsDisabledWithoutStore(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{}) // no Jobs store
	resp := post(t, srv.URL+"/v1/jobs", ctPBM, "", pbmBody(t, testImage(t)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when jobs are disabled", resp.StatusCode)
	}
}

// TestJobLifecycle is the e2e acceptance path: a submitted job is
// observable through queued → running → done, its result is fetchable in
// the negotiated formats, and DELETE removes it.
func TestJobLifecycle(t *testing.T) {
	eng, _, srv := newJobsServer(t, Config{Workers: 1, QueueDepth: 4, Threads: 1}, jobs.Options{TTL: time.Hour})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		started <- struct{}{}
		<-block
		return nil
	}

	img := testImage(t)
	// Job A occupies the single worker; job B (a different image) queues.
	a := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, img)).Jobs[0]
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started job A")
	}
	big := paremsp.NewImage(64, 32)
	for i := range big.Pix {
		big.Pix[i] = 1
	}
	b := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, big)).Jobs[0]
	if a.ID == b.ID {
		t.Fatal("distinct images produced the same job ID")
	}

	// While the worker is blocked: A is running, B is queued with a
	// recorded queue position.
	if j := pollJob(t, srv.URL, a.ID, "running"); j.StartedAt == nil {
		t.Fatalf("running job missing started_at: %+v", j)
	}
	jb, _ := getJobStatus(t, srv.URL, b.ID)
	if jb.State != "queued" {
		t.Fatalf("job B state %q, want queued", jb.State)
	}
	if jb.QueuePosition < 1 {
		t.Fatalf("job B queue_position = %d, want >= 1", jb.QueuePosition)
	}
	if jb.CreatedAt == nil || jb.StartedAt != nil || jb.FinishedAt != nil {
		t.Fatalf("queued job timestamps wrong: %+v", jb)
	}

	close(block)
	ja := pollJob(t, srv.URL, a.ID, "done")
	pollJob(t, srv.URL, b.ID, "done")
	if ja.Width != img.Width || ja.Height != img.Height || ja.NumComponents != 5 {
		t.Fatalf("done status = %+v, want 5x4 with 5 components", ja)
	}
	if ja.Phases == nil || ja.Phases.ScanNs <= 0 {
		t.Fatalf("done status missing phase timings: %+v", ja.Phases)
	}
	if ja.FinishedAt == nil || ja.ExpiresAt == nil {
		t.Fatalf("done job missing finished_at/expires_at: %+v", ja)
	}

	// Result in JSON with per-component statistics.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + a.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var lr labelResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lr.NumComponents != 5 || len(lr.Components) != 5 {
		t.Fatalf("result status %d, body %+v", resp.StatusCode, lr)
	}
	var area int64
	for _, c := range lr.Components {
		area += c.Area
	}
	if area != int64(img.ForegroundCount()) {
		t.Fatalf("component areas sum to %d, want %d", area, img.ForegroundCount())
	}

	// Result as a PGM label map: the mask must round-trip.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+a.ID+"/result", nil)
	req.Header.Set("Accept", ctPGM)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ctPGM {
		t.Fatalf("PGM result: status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// DELETE drops the job; both endpoints answer 404 afterwards.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+a.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	if _, code := getJobStatus(t, srv.URL, a.ID); code != http.StatusNotFound {
		t.Fatalf("status after delete = %d, want 404", code)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + a.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result after delete = %d, want 404", resp.StatusCode)
	}
	// Deleting again is a 404, not an error.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+a.ID, nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status %d, want 404", resp.StatusCode)
	}
}

// TestJobDedupHit resubmits an identical request and must get the same job
// ID back without recomputing.
func TestJobDedupHit(t *testing.T) {
	eng, store, srv := newJobsServer(t, Config{Workers: 2}, jobs.Options{TTL: time.Hour})
	body := pbmBody(t, testImage(t))

	first := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body).Jobs[0]
	if first.Dedup {
		t.Fatal("first submission reported dedup")
	}
	// The exported JobKey must reproduce the server-assigned ID, default
	// normalization included (empty alg, conn 0, level irrelevant for P4).
	if want := paremsp.JobKey(paremsp.JobLabels, "", 0, 0.5, body); first.ID != want {
		t.Fatalf("server ID %s, JobKey computes %s", first.ID, want)
	}
	pollJob(t, srv.URL, first.ID, "done")

	second := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body).Jobs[0]
	if second.ID != first.ID {
		t.Fatalf("dedup returned ID %s, want %s", second.ID, first.ID)
	}
	if !second.Dedup || second.State != "done" {
		t.Fatalf("dedup hit = %+v, want dedup:true state:done", second)
	}
	if got := eng.Snapshot().Completed; got != 1 {
		t.Fatalf("engine completed %d labelings, want 1 (dedup must not recompute)", got)
	}
	if got := store.Counts().DedupHits; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}

	// A different algorithm is a different job.
	third := submitJobs(t, srv.URL+"/v1/jobs?alg=bremsp", ctPBM, body).Jobs[0]
	if third.ID == first.ID {
		t.Fatal("different algorithm deduplicated to the same job")
	}
}

func TestJobTTLExpiry(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1},
		jobs.Options{TTL: 50 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	id := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, testImage(t))).Jobs[0].ID
	pollJob(t, srv.URL, id, "done")

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, code := getJobStatus(t, srv.URL, id); code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// An expired job is recomputable: resubmission is not a dedup hit.
	again := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, testImage(t))).Jobs[0]
	if again.Dedup {
		t.Fatal("resubmission after expiry reported dedup")
	}
	pollJob(t, srv.URL, again.ID, "done")
}

// TestJobBatchMixedValidity submits a multipart batch where one part is not
// an image: the bad part becomes an immediately-failed job while the rest
// label normally, and a duplicate part dedups within the batch.
func TestJobBatchMixedValidity(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 2}, jobs.Options{TTL: time.Hour})
	img := testImage(t)
	big := paremsp.NewImage(48, 48)
	for i := range big.Pix {
		big.Pix[i] = uint8(i % 2)
	}
	good1, good2 := pbmBody(t, img), pbmBody(t, big)
	ct, body := multipartBody(t, good1, []byte("this is not an image"), good2, good1)

	out := submitJobs(t, srv.URL+"/v1/jobs", ct, body)
	if len(out.Jobs) != 4 {
		t.Fatalf("batch created %d jobs, want 4", len(out.Jobs))
	}
	bad := out.Jobs[1]
	if bad.State != "failed" || bad.Error == "" {
		t.Fatalf("invalid part = %+v, want an immediately-failed job", bad)
	}
	if dup := out.Jobs[3]; !dup.Dedup || dup.ID != out.Jobs[0].ID {
		t.Fatalf("duplicate part = %+v, want dedup to %s", dup, out.Jobs[0].ID)
	}
	j1 := pollJob(t, srv.URL, out.Jobs[0].ID, "done")
	j2 := pollJob(t, srv.URL, out.Jobs[2].ID, "done")
	if j1.NumComponents != 5 {
		t.Fatalf("first image: %d components, want 5", j1.NumComponents)
	}
	if j2.Width != 48 || j2.Height != 48 {
		t.Fatalf("second image: %dx%d, want 48x48", j2.Width, j2.Height)
	}
	// The failed job's result endpoint reports the failure, not a result.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + bad.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed job result status %d, want 409", resp.StatusCode)
	}
	// Failed jobs do not dedup: resubmitting the bad bytes makes a fresh job.
	ct2, body2 := multipartBody(t, []byte("this is not an image"))
	if retry := submitJobs(t, srv.URL+"/v1/jobs", ct2, body2).Jobs[0]; retry.Dedup {
		t.Fatal("failed job deduplicated on retry")
	}
}

// TestJobStatsKind runs an asynchronous streaming-stats job.
func TestJobStatsKind(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{TTL: time.Hour})
	img := testImage(t)
	id := submitJobs(t, srv.URL+"/v1/jobs?kind=stats&band=2", ctPBM, pbmBody(t, img)).Jobs[0].ID
	if want := paremsp.JobKey(paremsp.JobStats, "pbremsp", 0, 0.5, pbmBody(t, img)); id != want {
		t.Fatalf("stats job ID %s, JobKey computes %s (alg/conn must not matter for stats)", id, want)
	}

	j := pollJob(t, srv.URL, id, "done")
	if j.Kind != "stats" || j.NumComponents != 5 {
		t.Fatalf("stats job status = %+v", j)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var body statsBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.NumComponents != 5 || len(body.Components) != 5 {
		t.Fatalf("stats result: status %d, body %+v", resp.StatusCode, body)
	}
	if body.BandRows != 2 {
		t.Fatalf("band_rows = %d, want the submitted 2", body.BandRows)
	}
	var area int64
	for _, c := range body.Components {
		area += c.Area
	}
	if area != int64(img.ForegroundCount()) {
		t.Fatalf("stats areas sum to %d, want %d", area, img.ForegroundCount())
	}

	// Stats results are JSON only.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id+"/result", nil)
	req.Header.Set("Accept", ctPNG)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("PNG-accept stats result: status %d, want 406", resp.StatusCode)
	}

	// A labels job over the same bytes is a different job (kind is in the key).
	lab := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, img)).Jobs[0]
	if lab.ID == id {
		t.Fatal("labels and stats jobs share an ID")
	}
}

// TestJobBitPackedSubmit covers the packed-ingest submit path (raw PBM +
// bit-packed algorithm) and CCL1 result rendering.
func TestJobBitPackedSubmit(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{TTL: time.Hour})
	id := submitJobs(t, srv.URL+"/v1/jobs?alg=pbremsp", ctPBM, pbmBody(t, testImage(t))).Jobs[0].ID
	j := pollJob(t, srv.URL, id, "done")
	if j.NumComponents != 5 || j.Phases == nil {
		t.Fatalf("bit-packed job status = %+v", j)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id+"/result", nil)
	req.Header.Set("Accept", ctCCL)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != ctCCL {
		t.Fatalf("CCL1 result: status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestJobResultNotReady asserts the 409 contract for queued/running jobs.
func TestJobResultNotReady(t *testing.T) {
	eng, _, srv := newJobsServer(t, Config{Workers: 1, QueueDepth: 4, Threads: 1}, jobs.Options{TTL: time.Hour})
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		started <- struct{}{}
		<-block
		return nil
	}
	id := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, testImage(t))).Jobs[0].ID
	<-started

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || j.State != "running" {
		t.Fatalf("not-ready result: status %d, state %q; want 409/running", resp.StatusCode, j.State)
	}
	close(block)
	pollJob(t, srv.URL, id, "done")
}

// TestJobQueueFullRetryAfter fills the pool and checks that a shed job
// submission answers 429 with a numeric Retry-After, and that the
// placeholder job is left behind as failed — observable by concurrent
// dedup'd clients — rather than deduplicating a retry.
func TestJobQueueFullRetryAfter(t *testing.T) {
	eng, store, srv := newJobsServer(t, Config{Workers: 1, QueueDepth: 1, Threads: 1}, jobs.Options{TTL: time.Hour})
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		started <- struct{}{}
		<-block
		return nil
	}

	imgs := make([][]byte, 3)
	for i := range imgs {
		im := paremsp.NewImage(8+i, 8)
		for p := range im.Pix {
			im.Pix[p] = 1
		}
		imgs[i] = pbmBody(t, im)
	}
	running := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, imgs[0]).Jobs[0]
	<-started
	queued := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, imgs[1]).Jobs[0] // occupies the queue slot
	deadline := time.Now().Add(5 * time.Second)
	for len(eng.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, srv.URL+"/v1/jobs", ctPBM, "", imgs[2])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submission: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", ra)
	}
	// The shed image's placeholder stays behind as a failed job (a client
	// that dedup'd to it mid-submission must not see a 404), and failed
	// jobs do not dedup, so a retry resubmits for real.
	if store.Len() != 3 {
		t.Fatalf("store holds %d jobs after shed submission, want 3 (failed placeholder retained)", store.Len())
	}
	if c := store.Counts(); c.Failed != 1 {
		t.Fatalf("failed gauge = %d, want 1", c.Failed)
	}
	shedID := jobs.Key(jobs.KindLabels, "paremsp", 8, 0, imgs[2])
	sj, code := getJobStatus(t, srv.URL, shedID)
	if code != http.StatusOK || sj.State != "failed" || sj.Error == "" {
		t.Fatalf("shed placeholder = %+v (status %d), want an observable failed job", sj, code)
	}
	close(block)
	// With the pool drained, the retry replaces the failed placeholder.
	// Wait for the drain itself: right after close(block) the worker may
	// not have taken the queued job yet, and the retry would be shed again.
	pollJob(t, srv.URL, running.ID, "done")
	pollJob(t, srv.URL, queued.ID, "done")
	retry := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, imgs[2]).Jobs[0]
	if retry.Dedup || retry.ID != shedID {
		t.Fatalf("retry = %+v, want a fresh (non-dedup) job under the same ID", retry)
	}
	pollJob(t, srv.URL, retry.ID, "done")
}

// TestRetryAfterEstimate pins the Retry-After arithmetic: backlog drain
// time at the observed mean latency, clamped to [1s, 60s].
func TestRetryAfterEstimate(t *testing.T) {
	eng := NewEngine(Config{Workers: 2, QueueDepth: 8})
	defer eng.Close()

	if got := eng.RetryAfter(); got != time.Second {
		t.Fatalf("no completed jobs: RetryAfter = %v, want the 1s floor", got)
	}
	// timed lands 4 service times of d in a fresh service-time histogram.
	timed := func(d time.Duration) {
		eng.metrics.jobHist = hist{}
		for i := 0; i < 4; i++ {
			eng.metrics.jobHist.observe(d.Nanoseconds())
		}
	}
	// 4 timed jobs at a 10s mean; empty queue, nothing in flight:
	// (0+1) * 10s / 2 workers = 5s.
	timed(10 * time.Second)
	if got := eng.RetryAfter(); got != 5*time.Second {
		t.Fatalf("RetryAfter = %v, want 5s", got)
	}
	// Fast jobs floor at 1s.
	timed(20 * time.Millisecond)
	if got := eng.RetryAfter(); got != time.Second {
		t.Fatalf("fast jobs: RetryAfter = %v, want 1s floor", got)
	}
	// Slow jobs cap at 60s.
	timed(10 * time.Minute)
	if got := eng.RetryAfter(); got != time.Minute {
		t.Fatalf("slow jobs: RetryAfter = %v, want 60s cap", got)
	}
}

// TestJobHonorsDeclaredContentType: like /v1/label, a declared body type
// wins over magic sniffing — PNG bytes declared as PBM fail to decode
// (asynchronously, as an immediately-failed job).
func TestJobHonorsDeclaredContentType(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{}, jobs.Options{})
	out := submitJobs(t, srv.URL+"/v1/jobs", ctPNG, pbmBody(t, testImage(t)))
	if j := out.Jobs[0]; j.State != "failed" || j.Error == "" {
		t.Fatalf("PBM-as-PNG = %+v, want an immediately-failed job", j)
	}
}

// TestJobBatchPartsCap: a batch with more parts than maxBatchParts is
// rejected outright (with the shared byte cap this bounds store entries
// per request).
func TestJobBatchPartsCap(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{}, jobs.Options{})
	parts := make([][]byte, maxBatchParts+1)
	for i := range parts {
		parts[i] = []byte{byte(i)}
	}
	ct, body := multipartBody(t, parts...)
	resp := post(t, srv.URL+"/v1/jobs", ct, "", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

func TestJobSubmitBadRequests(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{}, jobs.Options{})
	body := pbmBody(t, testImage(t))
	for name, tc := range map[string]struct {
		query string
		body  []byte
	}{
		"bad-kind":  {"?kind=frobnicate", body},
		"bad-alg":   {"?alg=nonsense", body},
		"bad-band":  {"?kind=stats&band=-2", body},
		"bad-level": {"?level=7", body},
		"empty":     {"", nil},
	} {
		resp := post(t, srv.URL+"/v1/jobs"+tc.query, ctPBM, "", tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestJobMetricsExposition(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{TTL: time.Hour})
	body := pbmBody(t, testImage(t))
	id := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body).Jobs[0].ID
	pollJob(t, srv.URL, id, "done")
	submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body) // dedup hit

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"ccserve_jobs_done 1",
		"ccserve_jobs_submitted_total 1",
		"ccserve_jobs_dedup_hits_total 1",
		"ccserve_jobs_queued 0",
		"ccserve_jobs_running 0",
		"ccserve_jobs_failed 0",
		"ccserve_jobs_evicted_total 0",
		"ccserve_job_service_ns_count 1",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestJobConcurrentStress is the -race target for the job subsystem: many
// clients submitting a small set of images (so dedup races are constant),
// polling, fetching results and deleting, all against one engine and store.
func TestJobConcurrentStress(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 2, QueueDepth: 256, Threads: 1},
		jobs.Options{TTL: 40 * time.Millisecond, SweepEvery: 10 * time.Millisecond})

	bodies := make([][]byte, 3)
	for i := range bodies {
		im := paremsp.NewImage(16+8*i, 16)
		for p := range im.Pix {
			im.Pix[p] = uint8((p + i) % 2)
		}
		bodies[i] = pbmBody(t, im)
	}

	const clients = 8
	const perClient = 15
	var failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				kindQ := ""
				if (c+i)%3 == 0 {
					kindQ = "?kind=stats"
				}
				resp := post(t, srv.URL+"/v1/jobs"+kindQ, ctPBM, ctJSON, bodies[i%len(bodies)])
				if resp.StatusCode == http.StatusTooManyRequests {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					continue // backpressure is a valid outcome under load
				}
				var out jobsSubmitResponse
				err := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted || len(out.Jobs) != 1 {
					t.Errorf("submit: status %d, err %v", resp.StatusCode, err)
					failures.Add(1)
					continue
				}
				id := out.Jobs[0].ID
				// Poll a few times; the job may finish, expire, or be
				// deleted by a sibling — all are legitimate under stress.
				for p := 0; p < 5; p++ {
					j, code := getJobStatus(t, srv.URL, id)
					if code == http.StatusNotFound {
						break
					}
					if code != http.StatusOK {
						t.Errorf("status poll: %d", code)
						failures.Add(1)
						break
					}
					if j.State == "failed" {
						t.Errorf("job %s failed: %s", id, j.Error)
						failures.Add(1)
						break
					}
					if j.State == "done" {
						r, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
						if err != nil {
							t.Error(err)
							failures.Add(1)
							break
						}
						io.Copy(io.Discard, r.Body)
						r.Body.Close()
						if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusNotFound &&
							r.StatusCode != http.StatusConflict {
							t.Errorf("result fetch: status %d", r.StatusCode)
							failures.Add(1)
						}
						break
					}
					time.Sleep(time.Millisecond)
				}
				if (c+i)%5 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
					r, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						failures.Add(1)
						continue
					}
					r.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d stress operations failed", failures.Load())
	}
}

// TestJobKindsSurviveRestartAndSpill submits one job of every kind to a
// disk store, fetches each default-format result, reopens the store and
// asserts every result comes back byte-identical. The capped run holds all
// six entries' overhead but not their payloads, so results are spilled
// before the first fetch and every fetch after the reopen reads from disk.
func TestJobKindsSurviveRestartAndSpill(t *testing.T) {
	pbm := pbmBody(t, testImage(t))
	gray, _ := grayBody(t, 29, 31, 61)
	vol, _ := volumeBody(t, 13, 9, 6, 62)
	subs := []struct {
		query, ct string
		body      []byte
	}{
		{"?kind=labels", ctPBM, pbm},
		{"?kind=stats", ctPBM, pbm},
		{"?kind=contours", ctPBM, pbm},
		{"?kind=gray", ctPGM, gray},
		{"?mode=gray-delta&delta=40", ctPGM, gray},
		{"?kind=volume", ctPGM, vol},
	}
	for _, maxBytes := range []int64{0, 4096} {
		t.Run(fmt.Sprintf("cap=%d", maxBytes), func(t *testing.T) {
			jopt := jobs.Options{TTL: time.Hour, Backend: jobs.BackendDisk, Dir: t.TempDir(), MaxResultBytes: maxBytes}
			serve := func() (*jobs.Store, *httptest.Server, func()) {
				store, err := jobs.Open(jopt)
				if err != nil {
					t.Fatal(err)
				}
				eng := NewEngine(Config{Workers: 2})
				h := NewHandler(eng, HandlerConfig{Jobs: store})
				srv := httptest.NewServer(h)
				return store, srv, func() {
					srv.Close()
					eng.Close()
					h.WaitJobs()
					store.Close()
				}
			}

			store1, srv1, stop1 := serve()
			ids := make([]string, len(subs))
			for i, s := range subs {
				ids[i] = submitJobs(t, srv1.URL+"/v1/jobs"+s.query, s.ct, s.body).Jobs[0].ID
				pollJob(t, srv1.URL, ids[i], string(jobs.StateDone))
			}
			if c := store1.Counts(); maxBytes > 0 && (c.Spilled == 0 || c.Evicted != 0) {
				t.Fatalf("capped store spilled %d and evicted %d, want spills only", c.Spilled, c.Evicted)
			}
			want := make([][]byte, len(subs))
			for i, id := range ids {
				want[i] = fetchResultBytes(t, srv1.URL, id)
			}
			stop1()

			_, srv2, stop2 := serve()
			defer stop2()
			for i, id := range ids {
				if got := fetchResultBytes(t, srv2.URL, id); !bytes.Equal(got, want[i]) {
					t.Errorf("%s result after reopen differs:\n got %s\nwant %s", subs[i].query, got, want[i])
				}
			}
		})
	}
}

// TestJobKeyMatchesServerForEveryKind: the exported JobKey promises the ID
// POST /v1/jobs assigns, so it must apply each kind's normalization.
func TestJobKeyMatchesServerForEveryKind(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1, QueueDepth: 16}, jobs.Options{TTL: time.Hour})
	gray, _ := grayBody(t, 9, 7, 5)
	for _, kind := range []paremsp.JobKind{paremsp.JobLabels, paremsp.JobStats, paremsp.JobContours, paremsp.JobGray, paremsp.JobVolume} {
		for _, body := range []struct {
			ct   string
			data []byte
		}{{ctPBM, pbmBody(t, testImage(t))}, {ctPGM, gray}} {
			if kind == paremsp.JobVolume && body.ct == ctPBM {
				continue // volumes are P5 stacks only
			}
			got := submitJobs(t, srv.URL+"/v1/jobs?kind="+string(kind)+"&level=0.5", body.ct, body.data).Jobs[0].ID
			if want := paremsp.JobKey(kind, "", 0, 0.5, body.data); got != want {
				t.Errorf("kind %s (%s): server ID %s, JobKey computes %s", kind, body.ct, got, want)
			}
		}
	}
}
