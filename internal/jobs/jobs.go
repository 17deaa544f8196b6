// Package jobs implements the asynchronous batch-job subsystem of the
// labeling service: a store of submitted labelings with content-hash
// deduplication and TTL eviction of finished results. The store keeps
// generation-aware job metadata in sharded maps and result payloads in a
// blob map; the disk backend adds a journal to the first and a directory to
// the second.
//
// A job's ID is the SHA-256 of its request tuple — input bytes, algorithm,
// connectivity, binarization level and output kind (see Key) — so the ID
// doubles as the dedup key: submitting an identical request finds the
// existing job and returns its cached result instead of recomputing.
// Jobs move queued → running → done/failed/canceled. Finished jobs (results
// and failures alike) are retained for the store's TTL and then evicted by a
// background sweeper goroutine; a Get after the deadline evicts lazily, so
// expiry is observable without waiting for the next sweep tick. Queued and
// running jobs are never evicted.
//
// BackendMemory (the default) is that store with no journal and no
// directory: fastest, lost on restart, and MaxResultBytes overflow must
// evict finished jobs. BackendDisk journals metadata to a fsynced JSONL
// write-ahead log and writes result payloads through to a content-addressed
// blob directory: a SIGKILL'd process reopens the store, serves every
// finished result byte-identical, and resubmits interrupted jobs (see
// Recover); MaxResultBytes overflow spills RAM copies to disk instead of
// evicting.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/band"
	"repro/internal/binimg"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/stats"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states. A job is created queued, moves to running when a
// pool worker picks it up, and ends done (result available), failed
// (Job.Err explains why) or canceled (its context ended first).
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	// StateCanceled marks a job whose context was canceled before it
	// completed — client timeout, -job-timeout, server drain, DELETE of a
	// queued/running job, or durable-store recovery that could not resubmit
	// it. Like failed, a canceled job is replaced on resubmission.
	StateCanceled State = "canceled"
)

// Finished reports whether s is a terminal state (done, failed or canceled).
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Kind is what a job computes: a full labeling (results renderable as
// JSON/PGM/PNG/CCL1), streaming component statistics (JSON only), a
// labeling plus per-component boundary polylines (JSON only), a gray-level
// labeling (JSON/PGM), or a volumetric labeling (JSON only). The kind is
// part of the dedup key, so one body submitted under different kinds always
// yields distinct jobs.
type Kind string

// Job kinds.
const (
	KindLabels   Kind = "labels"
	KindStats    Kind = "stats"
	KindContours Kind = "contours"
	KindGray     Kind = "gray"
	KindVolume   Kind = "volume"
)

// ResultInfo is the small summary of a finished result that lives with the
// job metadata (and is journaled by the durable backend), so job status can
// be served without touching the payload blob.
type ResultInfo struct {
	// NumComponents, Width, Height and Density describe the labeled image
	// for either kind.
	NumComponents int     `json:"nc,omitempty"`
	Width         int     `json:"w,omitempty"`
	Height        int     `json:"h,omitempty"`
	Density       float64 `json:"density,omitempty"`
	// Depth is the z-slice count of a KindVolume job's labeled volume.
	Depth int `json:"d,omitempty"`
	// BandRows is the band height a KindStats job streamed with (0 = the
	// default); execution detail only, deliberately outside the dedup key.
	BandRows int `json:"band_rows,omitempty"`
	// DecodeNs is how long the submission spent decoding the input before
	// the job was admitted; surfaced in the status trace, outside the
	// dedup key like BandRows.
	DecodeNs int64 `json:"decode_ns,omitempty"`
	// Threads is the thread count the labeling ran with; execution detail
	// for the status trace, outside the dedup key like BandRows.
	Threads int `json:"threads,omitempty"`
	// Phases holds per-phase times when the parallel algorithms produced
	// the labeling; zero otherwise.
	Phases core.PhaseTimes `json:"phases,omitempty"`
}

// Result is a finished job's payload; the fields matching the job's Kind
// are set and immutable once stored. The embedded ResultInfo summary is
// also copied into Job.Info at completion.
type Result struct {
	ResultInfo

	// Labels is the label raster of a KindLabels, KindContours or KindGray
	// job.
	Labels *binimg.LabelMap
	// Components caches a labeling job's per-component statistics,
	// computed once at completion so result fetches never rescan the
	// raster on the serving goroutine.
	Components []stats.Component
	// Stats is the streaming statistics of a KindStats job.
	Stats *band.Result
	// Contours caches a KindContours job's per-component boundary
	// polylines, traced once at completion.
	Contours []contour.Contour
	// VolumeSizes caches a KindVolume job's per-component voxel counts,
	// indexed by label-1 (the volume raster itself is not retained — only
	// the summary the result endpoint serves).
	VolumeSizes []int
}

// Params captures how to re-run a submission: everything the service needs
// besides the raw input bytes to decode and resubmit the job. The durable
// backend journals it at creation so queued jobs survive a restart.
type Params struct {
	// Alg, Conn and Level are part of the dedup key (see Key).
	Alg   string  `json:"alg,omitempty"`
	Conn  int     `json:"conn,omitempty"`
	Level float64 `json:"level,omitempty"`
	// Mode and Delta select the labeling predicate of the mode-polymorphic
	// kinds (gray, gray-delta, volume); both enter the dedup key through
	// the kind and algorithm-slot normalization (see the root package's
	// JobKeyMode). Empty means binary.
	Mode  string `json:"mode,omitempty"`
	Delta uint8  `json:"delta,omitempty"`
	// Threads and BandRows are execution knobs outside the dedup key.
	Threads  int `json:"threads,omitempty"`
	BandRows int `json:"band_rows,omitempty"`
	// ContentType is the submitted body's media type, needed to pick the
	// decoder again on recovery.
	ContentType string `json:"content_type,omitempty"`
}

// Job is a point-in-time snapshot of one stored job. Get and CreateOrGet
// return copies, so fields never change under the caller. The result
// payload itself is not part of the snapshot — fetch it with Store.Result.
type Job struct {
	// ID is the job's content-hash identifier (see Key).
	ID string
	// Gen is the entry's creation generation, unique per CreateOrGet that
	// creates (or replaces) the entry. The transition methods target a
	// generation, so a stale goroutine finishing a deleted-then-resubmitted
	// job cannot touch the replacement entry that reuses its ID.
	Gen uint64
	// Kind is what the job computes.
	Kind Kind
	// State is the lifecycle state at snapshot time.
	State State
	// QueuePos is the approximate engine queue length (including this job)
	// when the job was admitted; 0 before admission completes.
	QueuePos int
	// Err is the failure reason of a failed or canceled job.
	Err string
	// Params is the submission tuple needed to re-run the job.
	Params Params
	// Created, Started and Finished are the transition times; Started and
	// Finished are zero until the job reaches the corresponding state.
	Created, Started, Finished time.Time
	// ExpiresAt is when the sweeper may evict the job; zero while the job
	// is queued or running.
	ExpiresAt time.Time
	// Info summarizes the result of a done job, nil otherwise.
	Info *ResultInfo
}

// Key derives a job ID from the request tuple: the output kind, the
// resolved algorithm name, the connectivity, the binarization level and the
// raw input bytes, hashed with SHA-256 and truncated to the first 128 bits
// (32 hex characters). Identical tuples hash to the same ID, which is how
// deduplication works; anything that changes the output (a different
// algorithm, a different threshold for grayscale input) must be part of the
// tuple, while knobs that only change the execution (thread count, band
// height) must not be. Callers should pass level 0 for inputs the level
// cannot affect (raw PBM) so those submissions dedup across levels.
func Key(kind Kind, alg string, conn int, level float64, body []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00", kind, alg, conn)
	var lv [8]byte
	binary.LittleEndian.PutUint64(lv[:], math.Float64bits(level))
	h.Write(lv[:])
	h.Write(body)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Event is one job lifecycle transition, delivered to Options.OnEvent.
// Wait and Run are filled where the transition implies them (Wait on
// started and later, Run on done/failed of a job that started).
type Event struct {
	// Type is the transition: submitted, dedup, started, done, failed or
	// evicted.
	Type string
	// ID and Kind identify the job.
	ID   string
	Kind Kind
	// Err is the failure reason on failed events.
	Err string
	// Wait is the queued → running duration; Run is running → finished.
	Wait, Run time.Duration
}

// Event types.
const (
	EventSubmitted = "submitted"
	EventDedup     = "dedup"
	EventStarted   = "started"
	EventDone      = "done"
	EventFailed    = "failed"
	EventCanceled  = "canceled"
	EventEvicted   = "evicted"
)

// Backend selectors for Options.Backend.
const (
	// BackendMemory keeps everything in process memory (the default).
	BackendMemory = "memory"
	// BackendDisk selects the durable backend: job metadata in a fsynced
	// JSONL write-ahead journal under Options.Dir, result payloads and
	// pending inputs in a content-addressed blob directory beside it.
	BackendDisk = "disk"
	// BackendSQLite is the backend's former name, accepted as an alias.
	//
	// Deprecated: use BackendDisk. No SQLite is involved.
	BackendSQLite = "sqlite"
)

// Options sizes a Store.
type Options struct {
	// Backend selects the storage backend: BackendMemory ("" or "memory")
	// or BackendDisk ("disk", durable; requires Dir).
	Backend string
	// Dir is the durable backend's directory: a meta.wal journal, a blobs/
	// subdirectory and a LOCK file flock-ed exclusively while the store is
	// open — a second process opening the same Dir fails fast instead of
	// corrupting the journal. Ignored by the memory backend.
	Dir string
	// TTL is how long finished jobs (and their results) are retained.
	// 0 selects 15 minutes.
	TTL time.Duration
	// SweepEvery is the background sweeper's period. 0 selects TTL/4,
	// clamped to [100ms, 1m].
	SweepEvery time.Duration
	// MaxResultBytes caps the bytes the store keeps resident in memory:
	// result payloads (label rasters dominate at 4 bytes per pixel) plus a
	// fixed per-entry overhead, so floods of tiny or failed jobs are
	// bounded too, not just large results. 0 selects 512 MiB.
	//
	// When a transition pushes the total over the cap, the durable backend
	// first spills result payloads to disk (oldest first, down to a 90%
	// low-water mark) — nothing is lost, spilled results are re-read on
	// fetch. The memory backend has nowhere to spill, so it evicts the
	// oldest finished jobs instead, always sparing the most recently
	// finished one so the submission that triggered the overflow still
	// serves its result at least once.
	//
	// The memory bound is therefore NOT a hard cap. Precisely: after an
	// eviction pass, resident bytes ≤ 0.9·MaxResultBytes + the size of the
	// single most recently finished result + entryOverheadBytes for every
	// live (queued/running) job, which eviction never touches. One result
	// larger than the cap pins memory above the cap until a newer result
	// finishes (the next pass then evicts it) or its TTL lapses. On the
	// durable backend the exemption does not apply — the newest result's
	// RAM copy is spilled like any other, so resident payload bytes drop
	// all the way to the target.
	MaxResultBytes int64
	// OnEvent, when non-nil, is called — outside the store's locks, on
	// whatever goroutine drove the transition — for every job lifecycle
	// event. The labeling service wires it to the structured logger. The
	// hook must not block: it runs on request and sweeper goroutines.
	OnEvent func(Event)
}

// entryOverheadBytes is the per-entry charge against MaxResultBytes: an
// approximation of the Job struct, its strings, and map bookkeeping. It
// makes entry count — not only result payload — answer to the cap.
const entryOverheadBytes = 512

// Counts is a point-in-time census of the store, for the /metrics endpoint:
// per-state gauges plus cumulative submission, dedup-hit and eviction
// counters.
type Counts struct {
	Queued, Running, Done, Failed, Canceled int64
	Submitted                               int64
	DedupHits                               int64
	Evicted                                 int64
	// ResultBytes is the estimated memory currently resident: entry
	// overhead plus RAM result payloads (see Options.MaxResultBytes for
	// the precise bound).
	ResultBytes int64
	// DiskBytes is the durable backend's on-disk payload footprint
	// (result blobs + pending inputs); 0 on the memory backend.
	DiskBytes int64
	// Spilled counts results whose RAM copy was dropped under byte
	// pressure while the disk copy was kept (durable backend only).
	Spilled int64
	// Recovered and RecoveryCanceled count the startup-recovery outcomes:
	// interrupted jobs successfully resubmitted vs. canceled because their
	// input was lost or resubmission failed.
	Recovered, RecoveryCanceled int64
	// JournalErrors counts durable-journal append failures (write or fsync;
	// ENOSPC is the classic cause). Nonzero means the on-disk journal has
	// diverged from the serving state: a restart may lose or resurrect
	// jobs. 0 on the memory backend.
	JournalErrors int64
}

// Store is the job store façade: it owns the clock, TTL policy, sweeper
// goroutine, event emission, byte-cap policy and the cancel registry, and
// delegates record keeping to its metadata store and payload keeping to its
// blob store. All methods are safe for concurrent use; Open starts the TTL
// sweeper and Close stops it (the store itself remains usable after Close,
// only eviction becomes lazy).
type Store struct {
	meta  *metaStore
	blobs *blobStore

	ttl      time.Duration
	maxBytes int64
	onEvent  func(Event)

	submitted        atomic.Int64
	dedupHits        atomic.Int64
	evictions        atomic.Int64
	recovered        atomic.Int64
	recoveryCanceled atomic.Int64

	// cancels maps job ID → the in-flight computation's context cancel, so
	// Remove can release the worker promptly instead of letting the doomed
	// computation run to a generation-check no-op.
	cancelMu sync.Mutex
	cancels  map[string]cancelReg

	// evictRaceHook, when non-nil, runs between candidate ranking and each
	// eviction attempt; tests use it to race a resubmission against the
	// stale snapshot.
	evictRaceHook func(id string)

	// now is the clock, injected via open so tests drive TTL expiry.
	now func() time.Time

	// lock is the durable backend's exclusive store-directory flock, held
	// from open until Close; nil on the memory backend.
	lock *os.File

	stopOnce sync.Once
	stop     chan struct{}
	swept    sync.WaitGroup
	closed   atomic.Bool
}

type cancelReg struct {
	gen    uint64
	cancel context.CancelFunc
}

// Open builds a store per opt — memory or durable according to opt.Backend
// — and starts its sweeper goroutine. Opening the durable backend replays
// the journal: finished jobs come back finished with their results
// fetchable, interrupted (queued or running) jobs come back queued awaiting
// Recover, and expired or orphaned state is dropped.
func Open(opt Options) (*Store, error) {
	return open(opt, time.Now)
}

// open is Open with an injectable clock; the clock must be set before the
// sweeper goroutine starts, so tests use this instead of overwriting the
// field afterwards.
func open(opt Options, now func() time.Time) (*Store, error) {
	ttl := opt.TTL
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	sweep := opt.SweepEvery
	if sweep <= 0 {
		sweep = ttl / 4
		if sweep < 100*time.Millisecond {
			sweep = 100 * time.Millisecond
		}
		if sweep > time.Minute {
			sweep = time.Minute
		}
	}
	maxBytes := opt.MaxResultBytes
	if maxBytes <= 0 {
		maxBytes = 512 << 20
	}
	s := &Store{
		meta:     newMetaStore(),
		blobs:    newBlobStore(),
		ttl:      ttl,
		maxBytes: maxBytes,
		onEvent:  opt.OnEvent,
		cancels:  make(map[string]cancelReg),
		now:      now,
		stop:     make(chan struct{}),
	}
	switch opt.Backend {
	case "", BackendMemory:
	case BackendDisk, BackendSQLite:
		if opt.Dir == "" {
			return nil, fmt.Errorf("jobs: backend %q requires Options.Dir", opt.Backend)
		}
		if err := s.openDir(opt.Dir); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("jobs: unknown backend %q", opt.Backend)
	}
	s.swept.Add(1)
	go s.sweeper(sweep)
	return s, nil
}

// openDir attaches the disk backend under dir: it takes the directory
// lock, replays the journal into the metadata store and adopts exactly the
// blobs the replayed metadata still references (results of done jobs,
// inputs of interrupted ones); everything else on disk is an orphan from a
// crash window.
func (s *Store) openDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: create store dir: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return err
	}
	wal, err := openJournal(filepath.Join(dir, "meta.wal"), s.meta, s.now())
	if err != nil {
		unlockDir(lock)
		return err
	}
	keepRes := make(map[string]uint64)
	keepIn := make(map[string]uint64)
	for _, j := range s.meta.snapshot(func(*Job) bool { return true }) {
		switch j.State {
		case StateDone:
			keepRes[j.ID] = j.Gen
		case StateQueued:
			keepIn[j.ID] = j.Gen
		}
	}
	if err := s.blobs.openDir(filepath.Join(dir, "blobs"), keepRes, keepIn); err != nil {
		wal.close()
		unlockDir(lock)
		return err
	}
	s.meta.wal = wal
	s.lock = lock
	return nil
}

// Close stops the background sweeper and releases backend resources. It
// does not drop stored jobs; Get still evicts expired ones lazily, and the
// durable backend's state remains on disk for the next Open. Mutations
// arriving after Close — typically terminal transitions from job
// goroutines still unwinding during shutdown — are no-ops: on the durable
// backend their journal records and blob deletions could no longer be
// applied consistently, and the next Open recovers those jobs instead.
func (s *Store) Close() {
	s.closed.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	s.swept.Wait()
	s.meta.wal.close()
	unlockDir(s.lock)
}

// TTL returns the store's retention for finished jobs.
func (s *Store) TTL() time.Duration { return s.ttl }

// Durable reports whether the store survives a process restart (and so
// whether Recover has anything to do).
func (s *Store) Durable() bool { return s.meta.wal != nil }

// emit delivers ev to the OnEvent hook. Every call site fires after the
// backend's locks are released, so a hook that re-enters the store cannot
// deadlock; nil-hook stores pay one branch.
func (s *Store) emit(ev Event) {
	if s.onEvent != nil {
		s.onEvent(ev)
	}
}

// dropBlobs releases a dropped job's payloads (result and pending input).
func (s *Store) dropBlobs(j *Job) {
	s.blobs.Delete(j.ID, j.Gen)
	s.blobs.DeleteInput(j.ID, j.Gen)
}

// evicted accounts a job the store dropped on its own — TTL expiry or byte
// pressure: its payloads are released, the eviction counted and reported.
func (s *Store) evicted(j *Job) {
	s.dropBlobs(j)
	s.evictions.Add(1)
	s.emit(Event{Type: EventEvicted, ID: j.ID, Kind: j.Kind, Err: j.Err})
}

// resultBytes estimates how much memory a retained result pins: the label
// raster dominates at 4 bytes per pixel; stats components are ~64 bytes
// each; contour points are two ints (16 bytes); volume sizes one int each.
func resultBytes(r *Result) int64 {
	if r == nil {
		return 0
	}
	var n int64
	if r.Labels != nil {
		n += int64(cap(r.Labels.L)) * 4
	}
	n += int64(len(r.Components)) * 64
	if r.Stats != nil {
		n += int64(len(r.Stats.Components)) * 64
	}
	for i := range r.Contours {
		n += int64(len(r.Contours[i].Points))*16 + 32
	}
	n += int64(len(r.VolumeSizes)) * 8
	return n
}

// memBytes is the resident-byte census the cap polices: per-entry overhead
// plus RAM result payloads.
func (s *Store) memBytes() int64 {
	mem, _, _ := s.blobs.census()
	return int64(s.meta.Len())*entryOverheadBytes + mem
}

// CreateOrGet is the dedup gate: if a live job with this ID exists, it
// returns that job's snapshot and existed=true (a dedup hit — queued,
// running and done jobs all count). Otherwise it creates a fresh queued job
// and returns existed=false; a failed, canceled or expired job under the
// same ID is replaced rather than returned, so clients can retry. The input
// bytes are persisted by durable backends so the job can be resubmitted
// after a restart; the memory backend discards them.
func (s *Store) CreateOrGet(id string, kind Kind, p Params, input []byte) (Job, bool) {
	now := s.now()
	j, existed, replaced := s.meta.CreateOrGet(id, kind, p, now)
	if existed {
		s.dedupHits.Add(1)
		s.emit(Event{Type: EventDedup, ID: j.ID, Kind: j.Kind})
		return j, true
	}
	if replaced != nil {
		if !replaced.ExpiresAt.IsZero() && now.After(replaced.ExpiresAt) {
			s.evicted(replaced)
		} else {
			s.dropBlobs(replaced)
		}
	}
	if len(input) > 0 {
		// Best effort: if the input cannot be persisted the job still runs
		// now; it just cannot be resubmitted after a crash (recovery then
		// cancels it as "input lost").
		s.blobs.PutInput(id, j.Gen, input)
	}
	s.submitted.Add(1)
	s.emit(Event{Type: EventSubmitted, ID: id, Kind: kind})
	return j, false
}

// SetQueuePos records the engine queue position observed when the job was
// admitted; a no-op if the job (that exact generation) is gone.
func (s *Store) SetQueuePos(id string, gen uint64, pos int) {
	s.meta.SetQueuePos(id, gen, pos)
}

// Start moves a queued job to running; a no-op if the job (that exact
// generation) is gone.
func (s *Store) Start(id string, gen uint64) {
	if s.closed.Load() {
		return
	}
	if j, ok := s.meta.Start(id, gen, s.now()); ok {
		s.emit(Event{Type: EventStarted, ID: j.ID, Kind: j.Kind, Wait: j.Started.Sub(j.Created)})
	}
}

// Complete moves a job to done with its result and arms TTL eviction; a
// no-op if the job was deleted while running (the result is dropped), or
// if the entry under this ID is a different generation (the job was
// deleted and an identical submission recreated it — that submission's own
// computation delivers its result). The payload is stored before the state
// flips, so a done job always has a fetchable result — on the durable
// backend it is on disk before done is journaled. If resident bytes now
// exceed the store's cap, payloads are spilled (durable) or the oldest
// finished jobs evicted (memory) to make room.
func (s *Store) Complete(id string, gen uint64, r *Result) {
	if s.closed.Load() {
		return
	}
	if err := s.blobs.Put(id, gen, r); err != nil {
		s.Fail(id, gen, fmt.Errorf("persist result: %w", err))
		return
	}
	info := r.ResultInfo
	if !s.finish(id, gen, StateDone, "", &info) {
		// Deleted or superseded while running: drop the orphan payload.
		s.blobs.Delete(id, gen)
	}
}

// Fail moves a job to failed with err as the reason and arms TTL eviction;
// a no-op if the job was deleted while running or superseded by a newer
// generation (see Complete).
func (s *Store) Fail(id string, gen uint64, err error) {
	s.finish(id, gen, StateFailed, err.Error(), nil)
}

// Cancel moves a job to canceled with err (the context error that stopped
// it) as the reason and arms TTL eviction. Same no-op semantics as Fail for
// deleted or superseded jobs; queued jobs canceled by a drain move straight
// from queued to canceled.
func (s *Store) Cancel(id string, gen uint64, err error) {
	s.finish(id, gen, StateCanceled, err.Error(), nil)
}

// finish is the one terminal transition behind Complete, Fail and Cancel:
// it moves the job (that exact generation) to the terminal state to,
// releases its pending input and cancel registration, emits the event
// named after the state, and — since failed entries carry no result but
// still occupy their overhead charge — enforces the byte cap. It reports
// whether the transition applied.
func (s *Store) finish(id string, gen uint64, to State, msg string, info *ResultInfo) bool {
	if s.closed.Load() {
		return false
	}
	now := s.now()
	j, ok := s.meta.finish(id, gen, to, msg, info, now, now.Add(s.ttl))
	if !ok {
		return false
	}
	s.blobs.DeleteInput(id, gen)
	s.unregisterCancel(id, gen)
	ev := Event{Type: string(to), ID: id, Kind: j.Kind, Err: j.Err}
	if !j.Started.IsZero() {
		ev.Wait = j.Started.Sub(j.Created)
		ev.Run = j.Finished.Sub(j.Started)
	}
	s.emit(ev)
	s.checkOverflow()
	return true
}

// checkOverflow enforces MaxResultBytes: spill first (durable backends
// release payload RAM without losing anything), evict finished entries only
// if spilling was not enough (the memory backend, or an entry-overhead
// flood).
func (s *Store) checkOverflow() {
	if s.memBytes() <= s.maxBytes {
		return
	}
	// Scan down to a low-water mark (90% of the cap) so a store sitting at
	// the cap does not rescan on every completion — each pass buys ~10% of
	// the cap in headroom.
	lowWater := s.maxBytes / 10 * 9
	target := lowWater - int64(s.meta.Len())*entryOverheadBytes
	if target < 0 {
		target = 0
	}
	s.blobs.Shed(target)
	if s.memBytes() <= s.maxBytes {
		return
	}
	s.evictOverflow(lowWater)
}

// evictOverflow evicts finished jobs oldest-first until resident bytes drop
// to the low-water mark, always sparing the most recently finished job (so
// the submission that triggered the overflow still serves its result at
// least once — the cap can transiently overshoot by that one result; see
// Options.MaxResultBytes for the precise bound). Best effort: candidates
// are a lock-released snapshot, so each drop rechecks the candidate's
// generation and state under the shard lock — a job resubmitted (same
// content-hash ID, new generation) and even re-completed since the snapshot
// is not evicted on the stale ranking.
func (s *Store) evictOverflow(lowWater int64) {
	cands := s.meta.snapshot(func(j *Job) bool { return j.State.Finished() })
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Finished.Before(cands[j].Finished) })
	for i := range cands[:len(cands)-1] {
		if s.memBytes() <= lowWater {
			return
		}
		c := &cands[i]
		if s.evictRaceHook != nil {
			s.evictRaceHook(c.ID)
		}
		if j, ok := s.meta.Evict(c.ID, c.Gen); ok {
			s.evicted(&j)
		}
	}
}

// Get returns a snapshot of the job, evicting it first if its TTL has
// lapsed (so expiry is observable without waiting for the sweeper). After
// Close the eviction is skipped — mutations after Close are no-ops (see
// Close): on the durable backend the journal can no longer record the
// eviction, so deleting the blobs here would leave the next Open
// resurrecting a done job whose result is gone. Expired jobs still read as
// not-found; the next Open sweeps them consistently.
func (s *Store) Get(id string) (Job, bool) {
	j, ok := s.meta.Get(id)
	if !ok {
		return Job{}, false
	}
	if !j.ExpiresAt.IsZero() && s.now().After(j.ExpiresAt) {
		if !s.closed.Load() {
			if dropped, ok := s.meta.Evict(id, j.Gen); ok {
				s.evicted(&dropped)
			}
		}
		return Job{}, false
	}
	return j, true
}

// Result fetches a done job's payload from the blob store — from RAM when
// resident, from disk when the durable backend spilled it. ErrNoBlob if the
// job is unknown, not done, or its result was evicted.
func (s *Store) Result(id string) (*Result, error) {
	j, ok := s.Get(id)
	if !ok || j.State != StateDone {
		return nil, ErrNoBlob
	}
	return s.blobs.Open(id, j.Gen)
}

// Remove deletes the job, reporting whether it existed. Removing a queued
// or running job also cancels its computation's context, releasing the
// engine worker promptly — the eventual Complete/Fail/Cancel from the
// unwinding goroutine is a generation-checked no-op.
func (s *Store) Remove(id string) bool {
	if s.closed.Load() {
		return false
	}
	j, ok := s.meta.Remove(id)
	if !ok {
		return false
	}
	s.dropBlobs(&j)
	s.fireCancel(id, j.Gen)
	return true
}

// RegisterCancel associates the in-flight computation's context cancel with
// the job, so Remove can stop the computation instead of orphaning it. If
// that generation is already gone (a Remove raced admission), cancel runs
// immediately. The registration is dropped automatically when the job
// reaches a terminal state; the owner keeps responsibility for calling
// cancel on its own exit path (a double cancel is harmless).
func (s *Store) RegisterCancel(id string, gen uint64, cancel context.CancelFunc) {
	if cancel == nil {
		return
	}
	s.cancelMu.Lock()
	j, ok := s.meta.Get(id)
	if !ok || j.Gen != gen || j.State.Finished() {
		s.cancelMu.Unlock()
		cancel()
		return
	}
	s.cancels[id] = cancelReg{gen: gen, cancel: cancel}
	s.cancelMu.Unlock()
}

// unregisterCancel drops the registration without invoking it (the job
// finished on its own; its owner unwinds the context).
func (s *Store) unregisterCancel(id string, gen uint64) {
	s.cancelMu.Lock()
	if reg, ok := s.cancels[id]; ok && reg.gen == gen {
		delete(s.cancels, id)
	}
	s.cancelMu.Unlock()
}

// fireCancel pops the registration and invokes it.
func (s *Store) fireCancel(id string, gen uint64) {
	s.cancelMu.Lock()
	reg, ok := s.cancels[id]
	if ok && reg.gen == gen {
		delete(s.cancels, id)
	}
	s.cancelMu.Unlock()
	if ok && reg.gen == gen {
		reg.cancel()
	}
}

// Recover resubmits every interrupted job a durable backend replayed:
// queued snapshots (jobs that were queued or running at the crash) are
// handed to resubmit along with their persisted input bytes. A job whose
// input was lost, or whose resubmission fails (engine queue full, decode
// error), is canceled with a "recovery:" reason — the documented terminal
// state clients observe after a restart that could not re-run their job.
// On the memory backend Recover is a no-op (a fresh store holds nothing).
func (s *Store) Recover(resubmit func(j Job, input []byte) error) (requeued, canceled int) {
	for _, j := range s.meta.snapshot(func(j *Job) bool { return j.State == StateQueued }) {
		input, err := s.blobs.Input(j.ID, j.Gen)
		if err != nil {
			s.Cancel(j.ID, j.Gen, fmt.Errorf("recovery: input lost"))
			canceled++
			continue
		}
		if err := resubmit(j, input); err != nil {
			s.Cancel(j.ID, j.Gen, fmt.Errorf("recovery: %w", err))
			canceled++
			continue
		}
		requeued++
	}
	s.recovered.Add(int64(requeued))
	s.recoveryCanceled.Add(int64(canceled))
	return requeued, canceled
}

// Len returns the number of stored jobs.
func (s *Store) Len() int { return s.meta.Len() }

// Counts reads the per-state gauges and cumulative counters. Near-O(1):
// the gauges are maintained at every transition, never by scanning.
func (s *Store) Counts() Counts {
	m := s.meta
	memBytes, diskBytes, spilled := s.blobs.census()
	c := Counts{
		Queued:           m.queued.Load(),
		Running:          m.running.Load(),
		Done:             m.done.Load(),
		Failed:           m.failed.Load(),
		Canceled:         m.canceled.Load(),
		Submitted:        s.submitted.Load(),
		DedupHits:        s.dedupHits.Load(),
		Evicted:          s.evictions.Load(),
		ResultBytes:      int64(m.Len())*entryOverheadBytes + memBytes,
		DiskBytes:        diskBytes,
		Spilled:          spilled,
		Recovered:        s.recovered.Load(),
		RecoveryCanceled: s.recoveryCanceled.Load(),
	}
	if m.wal != nil {
		c.JournalErrors = m.wal.errs.Load()
	}
	return c
}

func (s *Store) sweeper(every time.Duration) {
	defer s.swept.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sweep()
		}
	}
}

// sweep evicts every finished job whose TTL has lapsed.
func (s *Store) sweep() {
	dropped := s.meta.Sweep(s.now())
	for i := range dropped {
		s.evicted(&dropped[i])
	}
}
