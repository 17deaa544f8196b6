package jobs

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/binimg"
)

// testBackend returns the backend the suite runs against; CI sets
// CCSERVE_TEST_JOB_STORE=disk to exercise the durable backend with the
// same lifecycle tests.
func testBackend() string {
	if b := os.Getenv("CCSERVE_TEST_JOB_STORE"); b != "" {
		return b
	}
	return BackendMemory
}

func durableTest() bool { return testBackend() != BackendMemory }

// newTestStore builds a store whose clock the test controls. The sweeper
// still runs on wall time but sees the fake clock, so tests advance expiry
// deterministically; the clock is injected before the sweeper starts so
// there is no unsynchronized write to s.now.
func newTestStore(t *testing.T, opt Options) (*Store, *fakeClock) {
	t.Helper()
	if opt.Backend == "" {
		opt.Backend = testBackend()
	}
	if opt.Backend != BackendMemory && opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	clk := &fakeClock{t: time.Now()}
	s, err := open(opt, clk.Now)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(s.Close)
	return s, clk
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestKeyTupleSensitivity(t *testing.T) {
	body := []byte("P4\n5 4\nxxx")
	base := Key(KindLabels, "paremsp", 8, 0, body)
	if got := Key(KindLabels, "paremsp", 8, 0, body); got != base {
		t.Fatalf("identical tuples hash differently: %s vs %s", got, base)
	}
	for name, other := range map[string]string{
		"kind": Key(KindStats, "paremsp", 8, 0, body),
		"alg":  Key(KindLabels, "bremsp", 8, 0, body),
		"conn": Key(KindLabels, "paremsp", 4, 0, body),
		"lvl":  Key(KindLabels, "paremsp", 8, 0.25, body),
		"body": Key(KindLabels, "paremsp", 8, 0, []byte("P4\n5 4\nyyy")),
	} {
		if other == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	if len(base) != 32 {
		t.Fatalf("key length %d, want 32 hex chars", len(base))
	}
}

func TestCreateOrGetDedup(t *testing.T) {
	s, _ := newTestStore(t, Options{TTL: time.Hour})
	id := Key(KindLabels, "paremsp", 8, 0, []byte("img"))

	j, existed := s.CreateOrGet(id, KindLabels, Params{}, nil)
	if existed {
		t.Fatal("first CreateOrGet reported an existing job")
	}
	if j.State != StateQueued || j.ID != id {
		t.Fatalf("fresh job = %+v", j)
	}

	// Queued, running and done jobs all dedup.
	for _, step := range []func(){
		func() {},
		func() { s.Start(id, j.Gen) },
		func() { s.Complete(id, j.Gen, &Result{ResultInfo: ResultInfo{NumComponents: 3}}) },
	} {
		step()
		if _, existed := s.CreateOrGet(id, KindLabels, Params{}, nil); !existed {
			t.Fatalf("dedup miss after %v", s.mustState(t, id))
		}
	}
	if got := s.Counts(); got.DedupHits != 3 || got.Submitted != 1 {
		t.Fatalf("counts = %+v, want 3 dedup hits / 1 submitted", got)
	}

	// A failed job is replaced by a resubmission, not returned.
	id2 := Key(KindLabels, "paremsp", 8, 0, []byte("bad"))
	jb, _ := s.CreateOrGet(id2, KindLabels, Params{}, nil)
	s.Fail(id2, jb.Gen, errors.New("boom"))
	j2, existed := s.CreateOrGet(id2, KindLabels, Params{}, nil)
	if existed {
		t.Fatal("failed job deduplicated; want replacement")
	}
	if j2.State != StateQueued || j2.Err != "" {
		t.Fatalf("replacement job = %+v", j2)
	}
}

// mustState fetches the job's state for test diagnostics.
func (s *Store) mustState(t *testing.T, id string) State {
	t.Helper()
	j, ok := s.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return j.State
}

func TestLifecycleTransitions(t *testing.T) {
	s, clk := newTestStore(t, Options{TTL: time.Minute})
	id := "job-1"
	created, _ := s.CreateOrGet(id, KindStats, Params{}, nil)
	gen := created.Gen

	j, _ := s.Get(id)
	if j.State != StateQueued || !j.Started.IsZero() || !j.ExpiresAt.IsZero() {
		t.Fatalf("queued snapshot = %+v", j)
	}

	s.SetQueuePos(id, gen, 7)
	s.Start(id, gen)
	j, _ = s.Get(id)
	if j.State != StateRunning || j.QueuePos != 7 || j.Started.IsZero() {
		t.Fatalf("running snapshot = %+v", j)
	}
	// Start is idempotent: a second Start must not reset the timestamp.
	started := j.Started
	clk.Advance(time.Second)
	s.Start(id, gen)
	if j, _ = s.Get(id); !j.Started.Equal(started) {
		t.Fatal("second Start moved the started timestamp")
	}

	res := &Result{ResultInfo: ResultInfo{NumComponents: 2, Width: 5, Height: 4}}
	s.Complete(id, gen, res)
	j, _ = s.Get(id)
	if j.State != StateDone || j.Info == nil || j.Finished.IsZero() {
		t.Fatalf("done snapshot = %+v", j)
	}
	if j.Info.NumComponents != 2 || j.Info.Width != 5 || j.Info.Height != 4 {
		t.Fatalf("done info = %+v", j.Info)
	}
	if want := j.Finished.Add(time.Minute); !j.ExpiresAt.Equal(want) {
		t.Fatalf("ExpiresAt = %v, want finished+TTL %v", j.ExpiresAt, want)
	}
	got, err := s.Result(id)
	if err != nil || got.NumComponents != 2 {
		t.Fatalf("Result(%s) = %+v, %v", id, got, err)
	}

	// Terminal states are sticky: a late Fail must not clobber the result.
	s.Fail(id, gen, errors.New("late"))
	if j, _ = s.Get(id); j.State != StateDone {
		t.Fatalf("late Fail overwrote done: %+v", j)
	}
}

// TestStaleGenerationIgnored covers the delete-while-running + resubmit
// race: the first computation's completion targets the old generation and
// must not touch the replacement entry that reuses the content-hash ID.
func TestStaleGenerationIgnored(t *testing.T) {
	s, _ := newTestStore(t, Options{TTL: time.Hour})
	old, _ := s.CreateOrGet("id", KindStats, Params{}, nil)
	s.Start("id", old.Gen)
	s.Remove("id") // client deletes the running job
	fresh, existed := s.CreateOrGet("id", KindStats, Params{}, nil)
	if existed || fresh.Gen == old.Gen {
		t.Fatalf("replacement = %+v (existed %v), want a fresh generation", fresh, existed)
	}

	// The stale goroutine finishes: none of its transitions may land.
	s.Start("id", old.Gen)
	s.Complete("id", old.Gen, &Result{ResultInfo: ResultInfo{BandRows: 7}})
	s.Fail("id", old.Gen, errors.New("stale"))
	j, ok := s.Get("id")
	if !ok || j.State != StateQueued || j.Info != nil || !j.Started.IsZero() {
		t.Fatalf("stale transitions leaked into replacement: %+v", j)
	}
	if _, err := s.Result("id"); err == nil {
		t.Fatal("stale result is fetchable from the replacement")
	}

	// The replacement's own completion still works.
	s.Complete("id", fresh.Gen, &Result{ResultInfo: ResultInfo{BandRows: 64}})
	if j, _ := s.Get("id"); j.State != StateDone || j.Info.BandRows != 64 {
		t.Fatalf("replacement completion = %+v", j)
	}
}

func TestCompleteAfterRemoveIsDropped(t *testing.T) {
	s, _ := newTestStore(t, Options{})
	jg, _ := s.CreateOrGet("gone", KindLabels, Params{}, nil)
	if !s.Remove("gone") {
		t.Fatal("Remove reported missing job")
	}
	s.Complete("gone", jg.Gen, &Result{}) // must not resurrect
	if _, ok := s.Get("gone"); ok {
		t.Fatal("Complete resurrected a removed job")
	}
	if s.Remove("gone") {
		t.Fatal("second Remove reported success")
	}
}

func TestGetLazyExpiry(t *testing.T) {
	s, clk := newTestStore(t, Options{TTL: time.Minute})
	ja, _ := s.CreateOrGet("a", KindLabels, Params{}, nil)
	s.Complete("a", ja.Gen, &Result{})
	if _, ok := s.Get("a"); !ok {
		t.Fatal("job expired before TTL")
	}
	clk.Advance(time.Minute + time.Second)
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get returned an expired job")
	}
	if got := s.Counts().Evicted; got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after eviction, want 0", s.Len())
	}
}

func TestExpiredJobIsReplacedOnResubmit(t *testing.T) {
	s, clk := newTestStore(t, Options{TTL: time.Minute})
	ja, _ := s.CreateOrGet("a", KindLabels, Params{}, nil)
	s.Complete("a", ja.Gen, &Result{ResultInfo: ResultInfo{NumComponents: 9}})
	clk.Advance(2 * time.Minute)
	j, existed := s.CreateOrGet("a", KindLabels, Params{}, nil)
	if existed {
		t.Fatal("expired job deduplicated; want replacement")
	}
	if j.State != StateQueued || j.Info != nil {
		t.Fatalf("replacement = %+v", j)
	}
}

func TestSweeperEvicts(t *testing.T) {
	// Real clock here: the sweeper tick and the TTL race wall time.
	s, err := Open(Options{TTL: 30 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ja, _ := s.CreateOrGet("a", KindLabels, Params{}, nil)
	s.Complete("a", ja.Gen, &Result{})
	s.CreateOrGet("b", KindLabels, Params{}, nil) // queued: must survive every sweep

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Get("a"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper never evicted the finished job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := s.Get("b"); !ok {
		t.Fatal("sweeper evicted a queued job")
	}
	if got := s.Counts().Evicted; got < 1 {
		t.Fatalf("evicted = %d, want >= 1", got)
	}
}

func TestCountsCensus(t *testing.T) {
	s, _ := newTestStore(t, Options{})
	gens := map[string]uint64{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("q%d", i)
		j, _ := s.CreateOrGet(id, KindLabels, Params{}, nil)
		gens[id] = j.Gen
	}
	s.Start("q0", gens["q0"])
	s.Complete("q1", gens["q1"], &Result{})
	s.Fail("q2", gens["q2"], errors.New("x"))
	c := s.Counts()
	if c.Queued != 1 || c.Running != 1 || c.Done != 1 || c.Failed != 1 {
		t.Fatalf("census = %+v", c)
	}
	if c.Submitted != 4 {
		t.Fatalf("submitted = %d, want 4", c.Submitted)
	}
}

// TestResultByteCap checks the MaxResultBytes overflow policy. On the
// memory backend, completing results past the cap evicts the oldest
// finished jobs, sparing the newest. On the durable backend nothing is
// evicted: RAM copies are spilled to disk and every result stays
// fetchable (the satellite-3 spill-not-exempt behaviour).
func TestResultByteCap(t *testing.T) {
	// Each done entry charges entryOverheadBytes + 100 labels * 4 bytes.
	const perEntry = entryOverheadBytes + 400
	capBytes := int64(2 * perEntry)
	if durableTest() {
		// The durable backend only evicts entries when overhead alone
		// overflows; give all four entries headroom so the payloads are
		// what busts the cap and spilling resolves it.
		capBytes = 4*entryOverheadBytes + 400
	}
	s, clk := newTestStore(t, Options{TTL: time.Hour, MaxResultBytes: capBytes})
	mkRes := func() *Result {
		return &Result{Labels: &binimg.LabelMap{L: make([]binimg.Label, 100)}}
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("j%d", i)
		j, _ := s.CreateOrGet(id, KindLabels, Params{}, nil)
		s.Complete(id, j.Gen, mkRes())
		clk.Advance(time.Second) // distinct Finished times order the eviction
	}
	if durableTest() {
		// Spill, don't evict: all four jobs stay done, resident bytes obey
		// the cap, and spilled results still serve from disk.
		c := s.Counts()
		if c.Evicted != 0 || c.Spilled < 1 {
			t.Fatalf("durable overflow: %+v, want 0 evicted and >= 1 spilled", c)
		}
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("j%d", i)
			r, err := s.Result(id)
			if err != nil || len(r.Labels.L) != 100 {
				t.Fatalf("spilled Result(%s) = %v, %v", id, r, err)
			}
		}
		if got := s.Counts().ResultBytes; got > capBytes {
			t.Fatalf("resident %d bytes after spill, want <= cap", got)
		}
		return
	}
	if got := s.Counts().ResultBytes; got > 2*perEntry+perEntry {
		t.Fatalf("retained %d bytes, want <= cap + one entry", got)
	}
	// The newest job must have survived; the oldest must be gone.
	if _, ok := s.Get("j3"); !ok {
		t.Fatal("newest result was evicted by the byte cap")
	}
	if _, ok := s.Get("j0"); ok {
		t.Fatal("oldest result survived past the byte cap")
	}
	if got := s.Counts().Evicted; got < 2 {
		t.Fatalf("evicted = %d, want >= 2", got)
	}
	// Removing jobs releases their bytes.
	before := s.Counts().ResultBytes
	s.Remove("j3")
	if got := s.Counts().ResultBytes; got != before-perEntry {
		t.Fatalf("ResultBytes after Remove = %d, want %d", got, before-perEntry)
	}
}

// TestFailedEntryFloodBounded: failed jobs carry no result payload but
// still charge their entry overhead, so a flood of them cannot grow the
// store past the byte cap (the metadata-DoS case). Spilling cannot help
// here — there is no payload to spill — so this holds on both backends.
func TestFailedEntryFloodBounded(t *testing.T) {
	const capBytes = 4 * entryOverheadBytes
	s, clk := newTestStore(t, Options{TTL: time.Hour, MaxResultBytes: capBytes})
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("f%d", i)
		j, _ := s.CreateOrGet(id, KindLabels, Params{}, nil)
		s.Fail(id, j.Gen, errors.New("synthetic"))
		clk.Advance(time.Second)
	}
	if got := s.Counts().ResultBytes; got > capBytes+entryOverheadBytes {
		t.Fatalf("retained %d bytes after failed-job flood, want <= cap + one entry", got)
	}
	if n := s.Len(); n >= 50 || n < 1 {
		t.Fatalf("store holds %d failed entries, want bounded by the cap", n)
	}
}

// TestStoreConcurrent hammers one store from many goroutines; run under
// go test -race this is the shard-locking correctness check.
func TestStoreConcurrent(t *testing.T) {
	opt := Options{TTL: 50 * time.Millisecond, SweepEvery: 5 * time.Millisecond,
		Backend: testBackend()}
	if durableTest() {
		opt.Dir = t.TempDir()
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := Key(KindLabels, "paremsp", 8, 0, []byte{byte(i % 16)})
				j, existed := s.CreateOrGet(id, KindLabels, Params{}, []byte{byte(i % 16)})
				if !existed {
					s.SetQueuePos(id, j.Gen, i)
					s.Start(id, j.Gen)
					if i%3 == 0 {
						s.Fail(id, j.Gen, errors.New("synthetic"))
					} else {
						s.Complete(id, j.Gen, &Result{ResultInfo: ResultInfo{NumComponents: i}})
					}
				}
				s.Get(id)
				s.Result(id)
				if (i+w)%7 == 0 {
					s.Remove(id)
				}
				s.Counts()
			}
		}()
	}
	wg.Wait()
}

// TestEventHook asserts every lifecycle transition reaches the OnEvent
// hook, in order, with wait/run durations on the terminal event — and that
// a hook that re-enters the store does not deadlock (events are emitted
// outside the shard locks).
func TestEventHook(t *testing.T) {
	var mu sync.Mutex
	var got []Event
	var s *Store
	clk := &fakeClock{t: time.Now()}
	opt := Options{TTL: time.Minute, Backend: testBackend(), OnEvent: func(ev Event) {
		s.Counts() // re-entrancy: must not deadlock
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}}
	if durableTest() {
		opt.Dir = t.TempDir()
	}
	var err error
	s, err = open(opt, clk.Now)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()

	id := "job-ev"
	j, existed := s.CreateOrGet(id, KindLabels, Params{}, nil)
	if existed {
		t.Fatal("fresh job reported as existing")
	}
	if _, existed = s.CreateOrGet(id, KindLabels, Params{}, nil); !existed {
		t.Fatal("dedup miss")
	}
	clk.Advance(10 * time.Millisecond)
	s.Start(id, j.Gen)
	clk.Advance(30 * time.Millisecond)
	s.Complete(id, j.Gen, &Result{ResultInfo: ResultInfo{NumComponents: 1}})

	id2 := "job-fail"
	j2, _ := s.CreateOrGet(id2, KindStats, Params{}, nil)
	s.Start(id2, j2.Gen)
	s.Fail(id2, j2.Gen, errors.New("boom"))

	mu.Lock()
	defer mu.Unlock()
	types := make([]string, len(got))
	for i, ev := range got {
		types[i] = ev.Type
	}
	want := []string{
		EventSubmitted, EventDedup, EventStarted, EventDone,
		EventSubmitted, EventStarted, EventFailed,
	}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("event sequence = %v, want %v", types, want)
	}
	done := got[3]
	if done.ID != id || done.Kind != KindLabels {
		t.Fatalf("done event = %+v", done)
	}
	if done.Wait != 10*time.Millisecond || done.Run != 30*time.Millisecond {
		t.Fatalf("done wait/run = %v/%v, want 10ms/30ms", done.Wait, done.Run)
	}
	if failed := got[6]; failed.Err != "boom" {
		t.Fatalf("failed event err = %q", failed.Err)
	}
}

// TestEventHookEviction asserts TTL sweeps report evicted jobs.
func TestEventHookEviction(t *testing.T) {
	var mu sync.Mutex
	evicted := map[string]bool{}
	s, clk := newTestStore(t, Options{TTL: time.Minute, SweepEvery: time.Hour, OnEvent: func(ev Event) {
		if ev.Type == EventEvicted {
			mu.Lock()
			evicted[ev.ID] = true
			mu.Unlock()
		}
	}})

	j, _ := s.CreateOrGet("old", KindLabels, Params{}, nil)
	s.Start("old", j.Gen)
	s.Complete("old", j.Gen, &Result{})
	clk.Advance(2 * time.Minute)
	if _, ok := s.Get("old"); ok {
		t.Fatal("expired job still visible")
	}
	mu.Lock()
	defer mu.Unlock()
	if !evicted["old"] {
		t.Fatal("lazy-expiry eviction did not reach the hook")
	}
}

// TestEvictStaleGenerationNoOp pins the stale-candidate eviction fix at the
// metadata-store level: Evict carries the candidate's generation and must
// refuse to drop an entry that was replaced (same ID, new generation) after
// the candidate snapshot was taken.
func TestEvictStaleGenerationNoOp(t *testing.T) {
	s, _ := newTestStore(t, Options{TTL: time.Hour})
	old, _ := s.CreateOrGet("x", KindLabels, Params{}, nil)
	s.Complete("x", old.Gen, &Result{})

	// The job is deleted and resubmitted between candidate ranking and the
	// drop; the replacement completes with a fresh result.
	s.Remove("x")
	fresh, _ := s.CreateOrGet("x", KindLabels, Params{}, nil)
	s.Complete("x", fresh.Gen, &Result{ResultInfo: ResultInfo{NumComponents: 42}})

	if _, ok := s.meta.Evict("x", old.Gen); ok {
		t.Fatal("Evict dropped a fresh entry on a stale generation")
	}
	if j, ok := s.Get("x"); !ok || j.State != StateDone || j.Info.NumComponents != 42 {
		t.Fatalf("fresh result lost: %+v (ok=%v)", j, ok)
	}
	if _, ok := s.meta.Evict("x", fresh.Gen); !ok {
		t.Fatal("Evict refused the matching generation")
	}
}

// TestEvictOverflowRaceSparesFreshResult drives the same race through the
// real overflow path: while evictOverflow walks its lock-released candidate
// ranking, the oldest candidate is deleted, resubmitted and re-completed.
// The pass must skip it (stale generation) instead of evicting the fresh
// result — the pre-fix behaviour rechecked only State.Finished() and
// dropped it.
func TestEvictOverflowRaceSparesFreshResult(t *testing.T) {
	if durableTest() {
		t.Skip("overflow evicts entries only on the memory backend")
	}
	const perEntry = entryOverheadBytes + 400
	// Three finished jobs fit under the cap; the fourth pushes over, so the
	// overflow pass runs exactly once, after the race hook is armed.
	s, clk := newTestStore(t, Options{TTL: time.Hour, MaxResultBytes: 3*perEntry + 100})
	mkRes := func(nc int) *Result {
		return &Result{
			ResultInfo: ResultInfo{NumComponents: nc},
			Labels:     &binimg.LabelMap{L: make([]binimg.Label, 100)},
		}
	}

	// "victim" is the oldest finished job, so it heads the eviction ranking.
	for i, id := range []string{"victim", "mid", "newest"} {
		j, _ := s.CreateOrGet(id, KindLabels, Params{}, nil)
		s.Complete(id, j.Gen, mkRes(i))
		clk.Advance(time.Second)
	}

	var raced bool
	s.evictRaceHook = func(id string) {
		if id != "victim" || raced {
			return
		}
		raced = true
		// The race: between ranking and drop, the victim is removed,
		// resubmitted under the same content-hash ID and completed again.
		// meta-level calls keep the hook re-entrancy-safe (the façade's
		// Complete would recurse into overflow handling).
		s.meta.Remove("victim")
		j, _, _ := s.meta.CreateOrGet("victim", KindLabels, Params{}, s.now())
		s.blobs.Put("victim", j.Gen, mkRes(99))
		info := &ResultInfo{NumComponents: 99}
		now := s.now()
		s.meta.finish("victim", j.Gen, StateDone, "", info, now, now.Add(s.ttl))
	}

	// Push past the cap: the overflow pass ranks [victim, mid, newest, ...]
	// and fires the hook before touching the victim.
	j, _ := s.CreateOrGet("overflow", KindLabels, Params{}, nil)
	s.Complete("overflow", j.Gen, mkRes(3))

	if !raced {
		t.Fatal("eviction race hook never fired")
	}
	got, ok := s.Get("victim")
	if !ok || got.State != StateDone || got.Info.NumComponents != 99 {
		t.Fatalf("fresh re-completed result was evicted on the stale ranking: %+v (ok=%v)", got, ok)
	}
	if r, err := s.Result("victim"); err != nil || r.NumComponents != 99 {
		t.Fatalf("fresh result payload lost: %+v, %v", r, err)
	}
}

// TestRemoveFiresRegisteredCancel pins the satellite-2 bugfix at the store
// level: Remove must invoke the registered context cancel so the in-flight
// computation stops burning a worker.
func TestRemoveFiresRegisteredCancel(t *testing.T) {
	s, _ := newTestStore(t, Options{TTL: time.Hour})
	j, _ := s.CreateOrGet("r", KindLabels, Params{}, nil)

	canceled := make(chan struct{})
	s.RegisterCancel("r", j.Gen, func() { close(canceled) })
	select {
	case <-canceled:
		t.Fatal("RegisterCancel fired immediately for a live job")
	default:
	}

	s.Remove("r")
	select {
	case <-canceled:
	default:
		t.Fatal("Remove did not cancel the in-flight computation")
	}

	// Registering against a gone generation cancels immediately.
	canceled2 := make(chan struct{})
	s.RegisterCancel("r", j.Gen, func() { close(canceled2) })
	select {
	case <-canceled2:
	default:
		t.Fatal("RegisterCancel for a removed job did not cancel immediately")
	}

	// A job that finishes normally drops its registration without firing.
	j2, _ := s.CreateOrGet("ok", KindLabels, Params{}, nil)
	fired := false
	s.RegisterCancel("ok", j2.Gen, func() { fired = true })
	s.Complete("ok", j2.Gen, &Result{})
	s.Remove("ok")
	if fired {
		t.Fatal("Remove fired the cancel of an already-finished job")
	}
}

// TestStaleCompleteDoesNotClobberFreshResult pins the blob half of the
// generation contract in the order TestStaleGenerationIgnored does not
// cover: the resubmitted job completes FIRST, then the stale goroutine
// finishes. The stale Put must not replace the fresh payload — and the
// stale Complete's cleanup Delete must not remove it — or the job reads
// done with a permanently unfetchable result.
func TestStaleCompleteDoesNotClobberFreshResult(t *testing.T) {
	s, _ := newTestStore(t, Options{TTL: time.Hour})
	old, _ := s.CreateOrGet("id", KindLabels, Params{}, []byte("in"))
	s.Start("id", old.Gen)
	s.Remove("id") // client deletes the running job...
	fresh, existed := s.CreateOrGet("id", KindLabels, Params{}, []byte("in"))
	if existed || fresh.Gen == old.Gen {
		t.Fatalf("replacement = %+v (existed %v), want a fresh generation", fresh, existed)
	}
	s.Start("id", fresh.Gen)
	s.Complete("id", fresh.Gen, labelsResult(10, 2)) // ...which re-completes first,
	s.Complete("id", old.Gen, labelsResult(10, 1))   // then the stale goroutine lands.

	j, ok := s.Get("id")
	if !ok || j.State != StateDone || j.Gen != fresh.Gen {
		t.Fatalf("job = %+v (ok=%v), want done at generation %d", j, ok, fresh.Gen)
	}
	r, err := s.Result("id")
	if err != nil {
		t.Fatalf("Result after stale complete: %v", err)
	}
	for k := range r.Labels.L {
		if r.Labels.L[k] != 2 {
			t.Fatalf("label[%d] = %d, want the fresh result's 2", k, r.Labels.L[k])
		}
	}
}
