package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binimg"
)

// openDurable opens a durable store in dir with a controlled clock.
func openDurable(t *testing.T, dir string, clk *fakeClock, opt Options) *Store {
	t.Helper()
	opt.Backend = BackendSQLite
	opt.Dir = dir
	if opt.TTL == 0 {
		opt.TTL = time.Hour
	}
	s, err := open(opt, clk.Now)
	if err != nil {
		t.Fatalf("open durable store: %v", err)
	}
	return s
}

func labelsResult(n int, fill binimg.Label) *Result {
	l := make([]binimg.Label, n)
	for i := range l {
		l[i] = fill
	}
	return &Result{
		ResultInfo: ResultInfo{NumComponents: int(fill), Width: n, Height: 1},
		Labels:     &binimg.LabelMap{Width: n, Height: 1, L: l},
	}
}

// TestDurableReopenRecovery is the satellite-4 unit test: complete N jobs
// and leave M queued, reopen the store (the unit-level stand-in for
// SIGKILL — nothing is flushed beyond what every transition already
// fsynced), and assert finished results come back byte-identical and
// queued jobs reach a terminal state through Recover.
func TestDurableReopenRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{})

	// N=3 completed jobs with distinct payloads.
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("done-%d", i)
		j, _ := s.CreateOrGet(id, KindLabels, Params{Alg: "paremsp"}, []byte("input"))
		s.Start(id, j.Gen)
		s.Complete(id, j.Gen, labelsResult(50, binimg.Label(i)))
	}
	// M=2 interrupted jobs: one queued, one running at the "crash".
	jq, _ := s.CreateOrGet("interrupted-q", KindStats, Params{Alg: "paremsp", Level: 0.5}, []byte("queued-input"))
	jr, _ := s.CreateOrGet("interrupted-r", KindStats, Params{Alg: "paremsp"}, []byte("running-input"))
	s.Start("interrupted-r", jr.Gen)
	// One failed job: must come back failed, not be re-run.
	jf, _ := s.CreateOrGet("failed", KindLabels, Params{}, []byte("bad"))
	s.Fail("failed", jf.Gen, errors.New("boom"))

	// SIGKILL stand-in: drop the store without any orderly shutdown beyond
	// stopping the sweeper goroutine (Close writes nothing new).
	s.Close()

	s2 := openDurable(t, dir, clk, Options{})
	defer s2.Close()

	// Finished results are served byte-identical.
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("done-%d", i)
		j, ok := s2.Get(id)
		if !ok || j.State != StateDone {
			t.Fatalf("reopened %s = %+v (ok=%v), want done", id, j, ok)
		}
		r, err := s2.Result(id)
		if err != nil {
			t.Fatalf("Result(%s) after reopen: %v", id, err)
		}
		want := labelsResult(50, binimg.Label(i))
		if r.NumComponents != want.NumComponents || len(r.Labels.L) != 50 {
			t.Fatalf("Result(%s) = %+v, want %+v", id, r.ResultInfo, want.ResultInfo)
		}
		for k := range r.Labels.L {
			if r.Labels.L[k] != want.Labels.L[k] {
				t.Fatalf("Result(%s) label[%d] = %d, want %d", id, k, r.Labels.L[k], want.Labels.L[k])
			}
		}
	}

	// The failed job replays failed with its reason.
	if j, ok := s2.Get("failed"); !ok || j.State != StateFailed || j.Err != "boom" {
		t.Fatalf("reopened failed job = %+v (ok=%v)", j, ok)
	}

	// Interrupted jobs replay as queued — including the one that was
	// running (Start is not journaled by design).
	for _, id := range []string{"interrupted-q", "interrupted-r"} {
		if j, ok := s2.Get(id); !ok || j.State != StateQueued {
			t.Fatalf("reopened %s = %+v (ok=%v), want queued", id, j, ok)
		}
	}
	if jq2, _ := s2.Get("interrupted-q"); jq2.Gen != jq.Gen || jq2.Params.Level != 0.5 {
		t.Fatalf("replayed job lost identity: %+v, want gen %d level 0.5", jq2, jq.Gen)
	}

	// Recover resubmits them with their persisted inputs; the resubmit
	// callback completes one and refuses the other, which must then reach
	// the documented canceled state.
	inputs := map[string]string{}
	requeued, canceled := s2.Recover(func(j Job, input []byte) error {
		inputs[j.ID] = string(input)
		if j.ID == "interrupted-r" {
			return errors.New("queue full")
		}
		s2.Complete(j.ID, j.Gen, labelsResult(10, 7))
		return nil
	})
	if requeued != 1 || canceled != 1 {
		t.Fatalf("Recover = (%d requeued, %d canceled), want (1, 1)", requeued, canceled)
	}
	if inputs["interrupted-q"] != "queued-input" || inputs["interrupted-r"] != "running-input" {
		t.Fatalf("recovery inputs = %+v, want the persisted request bodies", inputs)
	}
	if j, _ := s2.Get("interrupted-q"); j.State != StateDone {
		t.Fatalf("resubmitted job = %+v, want done", j)
	}
	if j, _ := s2.Get("interrupted-r"); j.State != StateCanceled || j.Err == "" {
		t.Fatalf("unresubmittable job = %+v, want canceled with a recovery reason", j)
	}
	c := s2.Counts()
	if c.Recovered != 1 || c.RecoveryCanceled != 1 {
		t.Fatalf("recovery counters = %+v, want 1/1", c)
	}

	// The generation counter moved past every replayed generation: a fresh
	// job never reuses one.
	fresh, _ := s2.CreateOrGet("fresh", KindLabels, Params{}, nil)
	if fresh.Gen <= jr.Gen {
		t.Fatalf("fresh generation %d not past replayed max %d", fresh.Gen, jr.Gen)
	}
}

// TestDurableRecoveryInputLost: a queued job whose persisted input vanished
// (crash window between journaling the create and persisting the input) is
// canceled with the documented "input lost" reason.
func TestDurableRecoveryInputLost(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{})
	j, _ := s.CreateOrGet("lost", KindLabels, Params{}, []byte("body"))
	s.Close()

	// Simulate the crash window: the journal has the create record but the
	// input blob never hit the disk.
	if err := os.Remove(filepath.Join(dir, "blobs", fmt.Sprintf("lost-%d.in", j.Gen))); err != nil {
		t.Fatalf("remove input blob: %v", err)
	}

	s2 := openDurable(t, dir, clk, Options{})
	defer s2.Close()
	requeued, canceled := s2.Recover(func(Job, []byte) error {
		t.Fatal("resubmit called for a job with no input")
		return nil
	})
	if requeued != 0 || canceled != 1 {
		t.Fatalf("Recover = (%d, %d), want (0, 1)", requeued, canceled)
	}
	got, _ := s2.Get("lost")
	if got.State != StateCanceled || got.Err != "recovery: input lost" {
		t.Fatalf("job = %+v, want canceled with input-lost reason", got)
	}
}

// TestDurableUnreadableBlobIsDropped: on a reopened store, a done job whose
// result blob was truncated or deleted answers ErrNoBlob and is evicted —
// counted and reported — so a resubmission recomputes it instead of
// deduplicating to a result that cannot be served.
func TestDurableUnreadableBlobIsDropped(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(path string) error
	}{
		{"truncated", func(path string) error { return os.Truncate(path, 20) }},
		{"deleted", os.Remove},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			clk := &fakeClock{t: time.Now()}
			s := openDurable(t, dir, clk, Options{})
			j, _ := s.CreateOrGet("spoiled", KindLabels, Params{}, []byte("in"))
			s.Complete("spoiled", j.Gen, labelsResult(50, 1))
			s.Close()
			if err := c.spoil(filepath.Join(dir, "blobs", fmt.Sprintf("spoiled-%d.res", j.Gen))); err != nil {
				t.Fatal(err)
			}

			var evicted atomic.Int64
			s2 := openDurable(t, dir, clk, Options{OnEvent: func(ev Event) {
				if ev.Type == EventEvicted && ev.ID == "spoiled" {
					evicted.Add(1)
				}
			}})
			defer s2.Close()
			if _, err := s2.Result("spoiled"); !errors.Is(err, ErrNoBlob) {
				t.Fatalf("Result = %v, want ErrNoBlob", err)
			}
			if _, ok := s2.Get("spoiled"); ok {
				t.Fatal("the job whose result is unreadable is still listed")
			}
			if got := s2.Counts().Evicted; got != 1 || evicted.Load() != 1 {
				t.Fatalf("evicted counter %d, events %d; want 1 and 1", got, evicted.Load())
			}
			if _, existed := s2.CreateOrGet("spoiled", KindLabels, Params{}, []byte("in")); existed {
				t.Fatal("a resubmission deduplicated to the job whose result is unreadable")
			}
		})
	}
}

// TestDurableSpillServesFromDisk: MaxResultBytes overflow on the durable
// backend spills RAM copies (satellite 3) — including the newest result,
// which the memory backend exempts — and spilled results decode from disk
// byte-identical.
func TestDurableSpillServesFromDisk(t *testing.T) {
	// The cap fits all five entries' overhead plus two resident payloads —
	// so overflow must be resolved by spilling payloads, never by evicting
	// entries (entry eviction only ever backstops overhead floods).
	const capBytes = 5*entryOverheadBytes + 2*400
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{MaxResultBytes: capBytes})
	defer s.Close()

	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("s%d", i)
		j, _ := s.CreateOrGet(id, KindLabels, Params{}, nil)
		s.Complete(id, j.Gen, labelsResult(100, binimg.Label(i+1)))
		clk.Advance(time.Second)
	}
	c := s.Counts()
	if c.Evicted != 0 {
		t.Fatalf("durable overflow evicted %d jobs, want spill only", c.Evicted)
	}
	if c.Spilled < 1 {
		t.Fatalf("spilled = %d, want >= 1", c.Spilled)
	}
	if c.ResultBytes > capBytes {
		t.Fatalf("resident %d bytes, want spilled to within the %d cap", c.ResultBytes, capBytes)
	}
	if c.DiskBytes == 0 {
		t.Fatal("disk bytes = 0 with results written through")
	}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("s%d", i)
		r, err := s.Result(id)
		if err != nil {
			t.Fatalf("Result(%s): %v", id, err)
		}
		for k := range r.Labels.L {
			if r.Labels.L[k] != binimg.Label(i+1) {
				t.Fatalf("Result(%s) label[%d] = %d, want %d", id, k, r.Labels.L[k], i+1)
			}
		}
	}
}

// TestDurableTornTailTruncated: a torn final journal record (the crash
// artifact of an append in flight) is truncated on replay; every record
// before it survives.
func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{})
	j, _ := s.CreateOrGet("ok", KindLabels, Params{}, nil)
	s.Complete("ok", j.Gen, labelsResult(10, 3))
	s.Close()

	walPath := filepath.Join(dir, "meta.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"create","id":"torn","gen":9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openDurable(t, dir, clk, Options{})
	defer s2.Close()
	if got, ok := s2.Get("ok"); !ok || got.State != StateDone {
		t.Fatalf("job before the torn record = %+v (ok=%v), want done", got, ok)
	}
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn record materialized a job")
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("torn")) {
		t.Fatal("torn record not truncated from the journal")
	}
}

// TestDurableRemoveSurvivesReopen: a removed job stays removed after
// reopen, and its blobs are gone from disk.
func TestDurableRemoveSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{})
	j, _ := s.CreateOrGet("gone", KindLabels, Params{}, []byte("in"))
	s.Complete("gone", j.Gen, labelsResult(20, 1))
	s.Remove("gone")
	s.Close()

	s2 := openDurable(t, dir, clk, Options{})
	defer s2.Close()
	if _, ok := s2.Get("gone"); ok {
		t.Fatal("removed job resurrected by replay")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("blob dir holds %d orphans after remove+reopen", len(entries))
	}
}

// TestDurableExpiredNotReplayed: finished jobs whose TTL lapsed while the
// process was down are not installed on reopen and their blobs are swept.
func TestDurableExpiredNotReplayed(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{TTL: time.Minute})
	j, _ := s.CreateOrGet("stale", KindLabels, Params{}, nil)
	s.Complete("stale", j.Gen, labelsResult(10, 2))
	s.Close()

	clk.Advance(2 * time.Minute) // downtime exceeds the TTL
	s2 := openDurable(t, dir, clk, Options{TTL: time.Minute})
	defer s2.Close()
	if _, ok := s2.Get("stale"); ok {
		t.Fatal("expired job replayed past its TTL")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("blob dir holds %d files for expired jobs", len(entries))
	}
}

// TestDurableJournalCompaction: a journal dominated by dead records is
// rewritten as a snapshot on sweep, so churn does not grow the file
// forever.
func TestDurableJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{TTL: time.Minute, SweepEvery: time.Hour})
	defer s.Close()

	// Churn: create + fail + remove is three records per job, all dead.
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("churn-%d", i)
		j, _ := s.CreateOrGet(id, KindLabels, Params{}, nil)
		s.Fail(id, j.Gen, errors.New("x"))
		s.Remove(id)
	}
	// One survivor so the snapshot is non-trivial.
	j, _ := s.CreateOrGet("keep", KindLabels, Params{}, nil)
	s.Complete("keep", j.Gen, labelsResult(10, 1))

	walPath := filepath.Join(dir, "meta.wal")
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.sweep() // nothing expired, but the sweep drives compaction
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size()/4 {
		t.Fatalf("journal %d -> %d bytes after compaction, want a snapshot rewrite", before.Size(), after.Size())
	}
	// The compacted journal still replays the survivor.
	s.Close()
	s2 := openDurable(t, dir, clk, Options{TTL: time.Minute})
	defer s2.Close()
	if got, ok := s2.Get("keep"); !ok || got.State != StateDone {
		t.Fatalf("survivor after compaction = %+v (ok=%v)", got, ok)
	}
	if r, err := s2.Result("keep"); err != nil || r.NumComponents != 1 {
		t.Fatalf("survivor result after compaction: %+v, %v", r, err)
	}
}

// TestDurableStaleCompleteKeepsFreshBlobOnDisk: the durable variant of the
// stale-complete race — the stale Put must not delete the fresh
// generation's .res file, so the fresh result survives a reopen.
func TestDurableStaleCompleteKeepsFreshBlobOnDisk(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{})
	old, _ := s.CreateOrGet("id", KindLabels, Params{}, []byte("in"))
	s.Start("id", old.Gen)
	s.Remove("id")
	fresh, _ := s.CreateOrGet("id", KindLabels, Params{}, []byte("in"))
	s.Start("id", fresh.Gen)
	s.Complete("id", fresh.Gen, labelsResult(10, 2))
	s.Complete("id", old.Gen, labelsResult(10, 1))
	s.Close()

	s2 := openDurable(t, dir, clk, Options{})
	defer s2.Close()
	r, err := s2.Result("id")
	if err != nil {
		t.Fatalf("Result after reopen: %v", err)
	}
	for k := range r.Labels.L {
		if r.Labels.L[k] != 2 {
			t.Fatalf("label[%d] = %d after reopen, want the fresh result's 2", k, r.Labels.L[k])
		}
	}
}

// TestDurableGetAfterCloseDoesNotEvict: mutations after Close are no-ops,
// and that must include Get's lazy TTL eviction — with the journal closed
// the eviction cannot be recorded, so deleting the blobs would leave the
// next Open resurrecting a done job with no result.
func TestDurableGetAfterCloseDoesNotEvict(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{TTL: time.Minute})
	j, _ := s.CreateOrGet("late", KindLabels, Params{}, nil)
	s.Complete("late", j.Gen, labelsResult(10, 1))
	s.Close()

	clk.Advance(2 * time.Minute)
	if _, ok := s.Get("late"); ok {
		t.Fatal("expired job still served after Close")
	}
	if got := s.Counts().Evicted; got != 0 {
		t.Fatalf("post-Close Get evicted %d jobs, want 0", got)
	}
	resPath := filepath.Join(dir, "blobs", fmt.Sprintf("late-%d.res", j.Gen))
	if _, err := os.Stat(resPath); err != nil {
		t.Fatalf("post-Close Get removed the result blob: %v", err)
	}
}

// TestDurableJournalAppendErrorSurfaced: a failing journal append (the
// stand-in here is a read-only handle; in production ENOSPC or a yanked
// disk) must keep the in-memory state serving but be counted, so operators
// see the divergence in /metrics instead of discovering it at the next
// restart.
func TestDurableJournalAppendErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{})
	defer s.Close()

	dm := s.meta.wal
	ro, err := os.Open(filepath.Join(dir, "meta.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dm.mu.Lock()
	good := dm.f
	dm.f = ro
	dm.mu.Unlock()

	j, _ := s.CreateOrGet("noisy", KindLabels, Params{}, nil)
	s.Fail("noisy", j.Gen, errors.New("x"))
	if got := s.Counts().JournalErrors; got != 2 {
		t.Fatalf("JournalErrors = %d, want 2 (create + finish)", got)
	}
	// The in-memory state stayed authoritative through the failures.
	if got, _ := s.Get("noisy"); got.State != StateFailed {
		t.Fatalf("job = %+v, want failed despite journal errors", got)
	}

	dm.mu.Lock()
	dm.f = good
	dm.mu.Unlock()
	ro.Close()
}

// TestDurableDirExclusiveLock: two stores must never share a directory —
// the second open fails fast while the first holds the flock, and Close
// releases it.
func TestDurableDirExclusiveLock(t *testing.T) {
	if !flockSupported {
		t.Skip("no flock on this platform")
	}
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s := openDurable(t, dir, clk, Options{})
	if _, err := open(Options{Backend: BackendSQLite, Dir: dir, TTL: time.Hour}, clk.Now); err == nil {
		t.Fatal("second open of a locked store dir succeeded")
	}
	s.Close()

	s2 := openDurable(t, dir, clk, Options{})
	s2.Close()
}

// TestDiskBackendNames: BackendDisk and its former name BackendSQLite open
// the same store.
func TestDiskBackendNames(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Now()}
	s, err := open(Options{Backend: BackendDisk, Dir: dir}, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.CreateOrGet("named", KindLabels, Params{}, nil)
	s.Complete("named", j.Gen, labelsResult(10, 4))
	s.Close()

	s2, err := open(Options{Backend: BackendSQLite, Dir: dir}, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Durable() {
		t.Fatal("sqlite-named store is not durable")
	}
	if r, err := s2.Result("named"); err != nil || r.NumComponents != 4 {
		t.Fatalf("result written as disk, read as sqlite: %+v, %v", r, err)
	}
}

// FuzzJournalReplay opens a store over arbitrary meta.wal bytes, twice,
// with a fixed clock. Opening must not panic, may only truncate the
// journal (never rewrite it into something else), and must be stable: the
// second open, of whatever the first left behind, holds the same jobs.
func FuzzJournalReplay(f *testing.F) {
	wal, err := os.ReadFile(filepath.Join(storeFixture, "meta.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	for _, n := range []int{0, 1, len(wal) / 3, len(wal) / 2, len(wal) - 1} {
		f.Add(wal[:n])
	}
	for _, i := range []int{0, 2, len(wal) / 3, len(wal) / 2, len(wal) - 2} {
		flipped := bytes.Clone(wal)
		flipped[i] ^= 0x04
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "meta.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: fixtureEpoch}
		first := replayedJobs(t, dir, clk)
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("open rewrote the journal: %q is not a prefix of the input", kept)
		}
		if second := replayedJobs(t, dir, clk); !reflect.DeepEqual(first, second) {
			t.Fatalf("reopen changed the jobs:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}

// replayedJobs opens the store in dir and returns every job it holds,
// sorted by ID.
func replayedJobs(t *testing.T, dir string, clk *fakeClock) []Job {
	t.Helper()
	s := openDurable(t, dir, clk, Options{})
	defer s.Close()
	jobs := s.meta.snapshot(func(*Job) bool { return true })
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	return jobs
}
