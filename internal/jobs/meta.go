package jobs

import (
	"sync"
	"sync/atomic"
	"time"
)

// shardCount is the number of mutex-sharded job maps.
const shardCount = 16

// metaStore is the job metadata store: generation-aware lifecycle records
// keyed by content-hash job ID in mutex-sharded maps, with per-state gauges
// maintained at every transition so a census never scans the shards.
//
// A transition targeting a missing ID or a stale generation is a no-op
// (applied=false). Timestamps are passed in by the caller (the Store owns
// the clock), which keeps the store clock-free and makes journal replay
// exact.
//
// On the disk backend a journal is attached and the transitions that must
// survive a crash — create, finish, remove, evict and sweep — hold its lock
// across the shard-locked change and the record that journals it, so
// records land in the order the changes applied. The shard lock is released
// before the append, so reads never wait for an fsync. Without a journal
// (the memory backend) transitions take only shard locks.
type metaStore struct {
	shards [shardCount]metaShard
	// gen issues Job.Gen values; journal replay seeds it past the largest
	// journaled generation.
	gen atomic.Uint64
	// wal is the disk backend's journal; nil on the memory backend.
	wal *journal

	queued, running, done, failed, canceled atomic.Int64
}

type metaShard struct {
	mu   sync.Mutex
	jobs map[string]*Job
}

func newMetaStore() *metaStore {
	m := &metaStore{}
	for i := range m.shards {
		m.shards[i].jobs = make(map[string]*Job)
	}
	return m
}

func (m *metaStore) shardFor(id string) *metaShard {
	// Inline FNV-1a: shardFor runs on every store operation and the
	// hash.Hash32 from fnv.New32a would heap-allocate each time.
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &m.shards[h%shardCount]
}

func (m *metaStore) stateGauge(st State) *atomic.Int64 {
	switch st {
	case StateQueued:
		return &m.queued
	case StateRunning:
		return &m.running
	case StateDone:
		return &m.done
	case StateCanceled:
		return &m.canceled
	default:
		return &m.failed
	}
}

// shift accounts one job moving between states; "" means created/removed.
func (m *metaStore) shift(from, to State) {
	if from != "" {
		m.stateGauge(from).Add(-1)
	}
	if to != "" {
		m.stateGauge(to).Add(1)
	}
}

// CreateOrGet is the dedup gate: a live entry under id is returned with
// existed=true; a failed, canceled or expired one is replaced by a fresh
// queued job (returned via replaced so the caller can release its blobs
// and account the eviction).
func (m *metaStore) CreateOrGet(id string, kind Kind, p Params, now time.Time) (j Job, existed bool, replaced *Job) {
	m.wal.lock()
	defer m.wal.unlock()
	sh := m.shardFor(id)
	sh.mu.Lock()
	if old, ok := sh.jobs[id]; ok {
		expired := !old.ExpiresAt.IsZero() && now.After(old.ExpiresAt)
		retryable := old.State == StateFailed || old.State == StateCanceled
		if !retryable && !expired {
			j = *old
			sh.mu.Unlock()
			return j, true, nil
		}
		repl := *old
		replaced = &repl
		m.shift(old.State, "")
	}
	fresh := &Job{ID: id, Gen: m.gen.Add(1), Kind: kind, State: StateQueued, Created: now, Params: p}
	sh.jobs[id] = fresh
	m.shift("", StateQueued)
	j = *fresh
	sh.mu.Unlock()
	// One create record both registers the fresh job and supersedes the
	// replaced one on replay (same ID, later record wins).
	m.wal.append(walRec{Op: "create", ID: id, Gen: j.Gen, Kind: kind, T: now.UnixNano(), P: &p})
	return j, false, replaced
}

// mutate runs f on the entry if id exists at exactly gen, returning the
// post-mutation snapshot and whether f reported the transition applied.
func (m *metaStore) mutate(id string, gen uint64, f func(*Job) bool) (Job, bool) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j, ok := sh.jobs[id]
	if !ok || j.Gen != gen || !f(j) {
		return Job{}, false
	}
	return *j, true
}

// SetQueuePos records the engine queue position observed at admission;
// ephemeral, so not journaled.
func (m *metaStore) SetQueuePos(id string, gen uint64, pos int) {
	m.mutate(id, gen, func(j *Job) bool { j.QueuePos = pos; return true })
}

// Start moves a queued job to running. Not journaled by design (see
// walRec): a job running at a crash replays as queued and is re-run.
func (m *metaStore) Start(id string, gen uint64, now time.Time) (Job, bool) {
	return m.mutate(id, gen, func(j *Job) bool {
		if j.State != StateQueued {
			return false
		}
		m.shift(StateQueued, StateRunning)
		j.State = StateRunning
		j.Started = now
		return true
	})
}

// finish moves an unfinished job to the terminal state to: done with its
// result summary, or failed/canceled with msg as the reason.
func (m *metaStore) finish(id string, gen uint64, to State, msg string, info *ResultInfo, now, expires time.Time) (Job, bool) {
	m.wal.lock()
	defer m.wal.unlock()
	j, ok := m.mutate(id, gen, func(j *Job) bool {
		if j.State.Finished() {
			return false
		}
		m.shift(j.State, to)
		j.State = to
		j.Err = msg
		j.Info = info
		j.Finished = now
		j.ExpiresAt = expires
		return true
	})
	if ok {
		m.wal.append(walRec{
			Op: "finish", ID: id, Gen: gen, State: to, Err: msg, Info: info,
			T: now.UnixNano(), Exp: expires.UnixNano(),
		})
	}
	return j, ok
}

// Get returns a snapshot; it applies no expiry logic (the Store does).
func (m *metaStore) Get(id string) (Job, bool) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if j, ok := sh.jobs[id]; ok {
		return *j, true
	}
	return Job{}, false
}

// drop deletes the entry under id if match accepts it and journals the
// removal.
func (m *metaStore) drop(id string, match func(*Job) bool) (Job, bool) {
	m.wal.lock()
	defer m.wal.unlock()
	sh := m.shardFor(id)
	sh.mu.Lock()
	j, ok := sh.jobs[id]
	if !ok || !match(j) {
		sh.mu.Unlock()
		return Job{}, false
	}
	delete(sh.jobs, id)
	m.shift(j.State, "")
	gone := *j
	sh.mu.Unlock()
	m.wal.append(walRec{Op: "remove", ID: id, Gen: gone.Gen})
	return gone, true
}

// Remove deletes the job regardless of state.
func (m *metaStore) Remove(id string) (Job, bool) {
	return m.drop(id, func(*Job) bool { return true })
}

// Evict deletes the job only if that exact generation is still present and
// finished. The recheck under the shard lock makes byte-cap eviction safe:
// a candidate ranked from a released-lock snapshot may have been deleted
// and resubmitted (same content-hash ID, new generation) and even completed
// again — its fresh result must not be dropped on the stale "oldest"
// ranking.
func (m *metaStore) Evict(id string, gen uint64) (Job, bool) {
	return m.drop(id, func(j *Job) bool { return j.Gen == gen && j.State.Finished() })
}

// Sweep drops every finished job whose expiry precedes now and returns the
// dropped snapshots.
func (m *metaStore) Sweep(now time.Time) []Job {
	m.wal.lock()
	defer m.wal.unlock()
	var dropped []Job
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, j := range sh.jobs {
			if !j.ExpiresAt.IsZero() && now.After(j.ExpiresAt) {
				dropped = append(dropped, *j)
				delete(sh.jobs, id)
				m.shift(j.State, "")
			}
		}
		sh.mu.Unlock()
	}
	for i := range dropped {
		m.wal.append(walRec{Op: "remove", ID: dropped[i].ID, Gen: dropped[i].Gen})
	}
	if m.wal != nil && m.wal.dominated(m.Len()) {
		m.wal.compact(m.snapshot(func(*Job) bool { return true }))
	}
	return dropped
}

// snapshot copies the jobs keep accepts; used for eviction ranking,
// recovery and journal compaction.
func (m *metaStore) snapshot(keep func(*Job) bool) []Job {
	var out []Job
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, j := range sh.jobs {
			if keep(j) {
				out = append(out, *j)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Len is the number of stored jobs.
func (m *metaStore) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.jobs)
		sh.mu.Unlock()
	}
	return n
}
