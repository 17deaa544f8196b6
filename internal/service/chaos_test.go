package service

// The chaos suite: hammer the service with concurrent synchronous and
// asynchronous traffic while the engine's gate stalls and panics labelings
// and every eleventh body is cut off mid-rows, then assert the
// fault-tolerance invariants — a cut-off body and only a cut-off body is
// refused, every accepted job reaches a terminal state, the worker-panic
// metric exactly matches the panics the gate threw, the pool keeps serving
// after every kind of fault, and the server still drains cleanly. Run it
// under -race (CI does): the stalls and panics widen the windows where
// cancellation, panic recovery and drain interleave. Goroutine leaks are
// caught by the package's TestMain leak check.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
)

// chaosImage builds a small deterministic random raster; distinct seeds give
// distinct payloads, so async submissions do not all dedup to one job.
func chaosImage(seed int64) *paremsp.Image {
	rng := rand.New(rand.NewSource(seed))
	img := &paremsp.Image{Width: 24, Height: 24, Pix: make([]byte, 24*24)}
	for i := range img.Pix {
		if rng.Intn(2) == 1 {
			img.Pix[i] = 1
		}
	}
	return img
}

func TestChaosFaultInjection(t *testing.T) {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	store := newTestJobStore(t, jobs.Options{TTL: time.Hour})
	eng := NewEngine(Config{Workers: 4, QueueDepth: 16, Threads: 1})
	// The gate stalls every 5th labeling for 2 ms (or until its context
	// ends) and panics every 7th, staggered primes so the faults interleave
	// rather than synchronize; calm turns it off for the post-chaos request.
	var calls, panics atomic.Int64
	var calm atomic.Bool
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		if calm.Load() {
			return nil
		}
		n := calls.Add(1)
		if n%5 == 0 {
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if n%7 == 0 {
			panics.Add(1)
			panic("chaos: worker panic")
		}
		return nil
	}
	h := NewHandler(eng, HandlerConfig{
		Jobs:           store,
		Obs:            NewObs(nil, 64),
		RequestTimeout: 5 * time.Second,
		JobTimeout:     5 * time.Second,
		BaseContext:    baseCtx,
	})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
		store.Close()
	})

	const clients, perClient = 8, 25
	var (
		mu             sync.Mutex
		jobIDs, cutIDs []string
		wg             sync.WaitGroup
	)
	status := map[int]int{}
	var cut400 int
	record := func(code int, cut bool) {
		mu.Lock()
		defer mu.Unlock()
		status[code]++
		if code == http.StatusBadRequest && cut {
			cut400++
		}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := int64(c*perClient + i)
				body := pbmBody(t, chaosImage(seed))
				cut := seed%11 == 0
				if cut {
					body = body[:len(body)-36] // the last 12 of 24 rows
				}
				if i%2 == 0 { // synchronous label
					resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					record(resp.StatusCode, cut)
					if (resp.StatusCode == http.StatusBadRequest) != cut {
						t.Errorf("seed %d (cut off: %v): status %d", seed, cut, resp.StatusCode)
					}
				} else { // async job
					resp := post(t, srv.URL+"/v1/jobs", ctPBM, ctJSON, body)
					record(resp.StatusCode, cut)
					if resp.StatusCode == http.StatusAccepted {
						var out jobsSubmitResponse
						if err := json.NewDecoder(resp.Body).Decode(&out); err == nil {
							mu.Lock()
							for _, j := range out.Jobs {
								jobIDs = append(jobIDs, j.ID)
								if cut {
									cutIDs = append(cutIDs, j.ID)
								}
							}
							mu.Unlock()
						}
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("statuses %v; the gate threw %d panics", status, panics.Load())

	// Under chaos the only acceptable outcomes are the documented failure
	// modes; anything else (e.g. a 502 from a dead worker) is a bug.
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusAccepted: true,
		http.StatusBadRequest:          true, // cut-off bodies
		http.StatusTooManyRequests:     true, // real queue-full
		http.StatusInternalServerError: true, // the gate's panics
		http.StatusGatewayTimeout:      true, // stalls crossing the request timeout
		http.StatusServiceUnavailable:  true,
	}
	for code, n := range status {
		if !allowed[code] {
			t.Fatalf("unexpected status %d (%d times) under chaos", code, n)
		}
	}
	if status[http.StatusOK]+status[http.StatusAccepted] == 0 {
		t.Fatal("no request succeeded under chaos; the faults were supposed to be partial")
	}
	if cut400 == 0 {
		t.Fatal("no cut-off body was answered 400; chaos coverage hole")
	}

	// Every accepted async job must reach a terminal state — nothing may
	// wedge in queued/running once the traffic stops — and a cut-off one
	// fails at its decode.
	deadline := time.Now().Add(20 * time.Second)
	for _, id := range jobIDs {
		for {
			j, ok := store.Get(id)
			if !ok {
				break // evicted/replaced by a colliding resubmission
			}
			if j.State.Finished() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s wedged in state %q after chaos", id, j.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for _, id := range cutIDs {
		if j, ok := store.Get(id); ok && j.State != jobs.StateFailed {
			t.Fatalf("cut-off job %s ended %q, want failed", id, j.State)
		}
	}

	// The panic containment must account exactly: every panic the gate
	// threw is one counted recovery — none escaped, none double-counted.
	snap := eng.Snapshot()
	if thrown := panics.Load(); snap.Panics != thrown {
		t.Fatalf("worker_panics_total = %d, the gate threw %d", snap.Panics, thrown)
	}
	if snap.Panics == 0 {
		t.Fatal("the gate threw no panics; chaos coverage hole")
	}
	if snap.InFlight != 0 {
		t.Fatalf("in_flight = %d after traffic stopped, want 0", snap.InFlight)
	}

	// And after all that abuse, a clean labeling still works...
	calm.Store(true)
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, chaosImage(999)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos label = %d, want 200", resp.StatusCode)
	}

	// ...and the server drains cleanly within the timeout.
	h.StartDrain()
	if !eng.Drain(10 * time.Second) {
		t.Fatal("server failed to drain after chaos")
	}
	baseCancel()
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hb), "draining") {
		t.Fatalf("post-drain healthz = %d %q, want 503 draining", hresp.StatusCode, hb)
	}
}

// TestChaosQueueFullBursts: a burst of sync and async requests against a
// full pool (the gate holds its one worker and its one queue slot) must
// surface as well-formed 429s with Retry-After hints and exact rejection
// accounting. The shed path leaves no partial state: the worker and the
// slot hold what they held, a shed job is a failed placeholder rather than
// a queued one, and once the held requests finish every shed request,
// resent, succeeds.
func TestChaosQueueFullBursts(t *testing.T) {
	eng, store, srv := newJobsServer(t, Config{Workers: 1, QueueDepth: 1, Threads: 1}, jobs.Options{TTL: time.Hour})
	release := fillPool(t, eng, srv.URL, pbmBody(t, chaosImage(0)))

	const burst = 10
	path := func(i int) string {
		if i%2 == 0 {
			return "/v1/jobs"
		}
		return "/v1/label"
	}
	bodies := make([][]byte, burst)
	for i := range bodies {
		bodies[i] = pbmBody(t, chaosImage(int64(i+1)))
	}
	before := eng.Snapshot().Rejected
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(path string, body []byte) {
			defer wg.Done()
			resp := post(t, srv.URL+path, ctPBM, ctJSON, body)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("%s: status %d, want 429", path, resp.StatusCode)
			} else if resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s: 429 without Retry-After", path)
			}
		}(path(i), body)
	}
	wg.Wait()

	s := eng.Snapshot()
	if rej := s.Rejected - before; rej != burst {
		t.Fatalf("rejected_total grew by %d, want %d", rej, burst)
	}
	if s.InFlight != 1 || len(eng.queue) != 1 {
		t.Fatalf("in_flight %d, queue %d after the burst, want 1 and 1", s.InFlight, len(eng.queue))
	}
	if c := store.Counts(); c.Failed != burst/2 || c.Queued+c.Running != 0 {
		t.Fatalf("job counts %+v after the burst, want %d failed and none queued or running", c, burst/2)
	}

	for _, r := range release() {
		if r.status != http.StatusOK {
			t.Fatalf("held request: status %d, want 200", r.status)
		}
	}
	for i, body := range bodies {
		if path(i) == "/v1/jobs" {
			j := submitJobs(t, srv.URL+path(i), ctPBM, body).Jobs[0]
			pollJob(t, srv.URL, j.ID, string(jobs.StateDone))
			continue
		}
		resp := post(t, srv.URL+path(i), ctPBM, ctJSON, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resent %s: status %d, want 200", path(i), resp.StatusCode)
		}
	}
	if rej := eng.Snapshot().Rejected - before; rej != burst {
		t.Fatalf("rejected_total grew by %d after the pool drained, want %d", rej, burst)
	}
}
