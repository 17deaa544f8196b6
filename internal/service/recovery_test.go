package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
)

// fetchResultBytes GETs a done job's result in the default format and
// returns the payload.
func fetchResultBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s = %d: %s", id, resp.StatusCode, b)
	}
	return b
}

// TestServiceRecoveryAfterReopen drives the full restart contract at the
// service layer against the durable backend: a done job's result survives
// a store reopen byte-identical, and a job that was running when the
// first process "died" (its terminal transition never reached the
// journal) replays as queued, is resubmitted by RecoverJobs through the
// normal admission path, and completes under the second handler.
func TestServiceRecoveryAfterReopen(t *testing.T) {
	dir := t.TempDir()
	jopt := jobs.Options{TTL: time.Hour, Backend: jobs.BackendDisk, Dir: dir}

	// First life. The handler gets a cancelable base context standing in
	// for the process lifetime.
	store1, err := jobs.Open(jopt)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := NewEngine(Config{Workers: 1, Threads: 1})
	base1, cancel1 := context.WithCancel(context.Background())
	srv1 := httptest.NewServer(NewHandler(eng1, HandlerConfig{Jobs: store1, BaseContext: base1}))

	done := submitJobs(t, srv1.URL+"/v1/jobs", ctPBM, pbmBody(t, testImage(t))).Jobs[0]
	pollJob(t, srv1.URL, done.ID, string(jobs.StateDone))
	want := fetchResultBytes(t, srv1.URL, done.ID)

	// Park the next run on its context so a second job is mid-run at the
	// "crash".
	started := make(chan struct{}, 1)
	var parked atomic.Int32
	gateBinary(eng1, func(ctx context.Context, _ paremsp.Options) error {
		if parked.Add(1) == 1 {
			started <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	other, err := paremsp.ParseImage("#.#\n.#.\n#.#")
	if err != nil {
		t.Fatal(err)
	}
	interrupted := submitJobs(t, srv1.URL+"/v1/jobs", ctPBM, pbmBody(t, other)).Jobs[0]
	<-started

	// Crash: close the journal first, so the Cancel the unwinding job
	// goroutine lands after base-context cancellation never reaches disk —
	// exactly the state a SIGKILL leaves behind. Only then tear down the
	// first server and engine.
	store1.Close()
	cancel1()
	srv1.Close()
	eng1.Close()

	// Second life: reopen the store, build a fresh engine and handler, and
	// recover before serving.
	store2, err := jobs.Open(jopt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	eng2 := NewEngine(Config{Workers: 1, Threads: 1})
	h2 := NewHandler(eng2, HandlerConfig{Jobs: store2})
	srv2 := httptest.NewServer(h2)
	t.Cleanup(func() {
		srv2.Close()
		eng2.Close()
		store2.Close()
	})

	requeued, canceled := h2.RecoverJobs()
	if requeued != 1 || canceled != 0 {
		t.Fatalf("RecoverJobs = (%d, %d), want (1, 0)", requeued, canceled)
	}

	// The pre-crash done job must be served byte-identical without
	// recomputation.
	if got := fetchResultBytes(t, srv2.URL, done.ID); !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs: %d bytes vs %d before the restart", len(got), len(want))
	}
	// The interrupted job runs to done on the new engine and its result is
	// fetchable; the ID is stable because the key is content-derived.
	pollJob(t, srv2.URL, interrupted.ID, string(jobs.StateDone))
	fetchResultBytes(t, srv2.URL, interrupted.ID)

	if c := store2.Counts(); c.Recovered != 1 || c.RecoveryCanceled != 0 {
		t.Fatalf("recovery counters = (%d, %d), want (1, 0)", c.Recovered, c.RecoveryCanceled)
	}
}
