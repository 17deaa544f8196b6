package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// walRec is one journal line: a self-contained JSON record of a lifecycle
// transition. Only three ops exist — create, finish, remove — because only
// those must survive a crash. Start is deliberately not journaled: recovery
// re-queues interrupted jobs anyway, so a job that was running at the crash
// replays as queued, which is exactly the documented recovery semantics.
type walRec struct {
	Op   string `json:"op"` // "create" | "finish" | "remove"
	ID   string `json:"id"`
	Gen  uint64 `json:"gen,omitempty"`
	Kind Kind   `json:"kind,omitempty"`
	// finish-only fields.
	State State       `json:"state,omitempty"` // done | failed | canceled
	Err   string      `json:"err,omitempty"`
	Info  *ResultInfo `json:"info,omitempty"`
	// T is the transition time (create or finish), Exp the TTL deadline,
	// both unix nanoseconds.
	T   int64   `json:"t,omitempty"`
	Exp int64   `json:"exp,omitempty"`
	P   *Params `json:"p,omitempty"`
}

// journal is the disk backend's metadata write-ahead log: a fsynced JSONL
// record of every applied create/finish/remove, so replaying it rebuilds the
// exact metadata. mu orders each transition with its append — without it
// two racing transitions could journal in the opposite order they applied,
// and a replay would resurrect the loser. A nil *journal (the memory
// backend) locks and records nothing.
type journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	appends int // records since open/compaction, drives compaction

	// errs counts append write/fsync failures (ENOSPC, yanked disk): the
	// in-memory state keeps serving, but the journal has diverged, so a
	// later restart may lose or resurrect jobs. Exported through Counts as
	// the ccserve_jobs_journal_errors_total metric; logOnce keeps a full
	// disk from turning into a log storm.
	errs    atomic.Int64
	logOnce sync.Once
}

// openJournal opens (or creates) the journal at path and replays it into m.
// Finished jobs whose TTL already lapsed are not installed (their blobs are
// swept as orphans by the caller); everything else comes back exactly as
// journaled, with running-at-crash jobs as queued. A torn trailing record —
// the one crash artifact an append-only journal can have — is truncated; a
// torn or foreign record mid-file stops the replay there and truncates the
// rest, favouring serving the prefix over refusing to start.
func openJournal(path string, m *metaStore, now time.Time) (*journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobs: read journal: %w", err)
	}
	jobs, maxGen, goodLen := replay(data)
	if goodLen < len(data) {
		if err := os.Truncate(path, int64(goodLen)); err != nil {
			return nil, fmt.Errorf("jobs: truncate torn journal: %w", err)
		}
	}
	live := 0
	for _, j := range jobs {
		if !j.ExpiresAt.IsZero() && now.After(j.ExpiresAt) {
			continue
		}
		m.shardFor(j.ID).jobs[j.ID] = j
		m.shift("", j.State)
		live++
	}
	// Seed the generation counter past every journaled generation — also
	// the removed and expired ones, so a fresh entry never reuses a
	// generation that stale on-disk artifacts might still carry.
	m.gen.Store(maxGen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	w := &journal{f: f, path: path}
	// Replay counts toward the compaction budget: a journal full of dead
	// records compacts on the first sweep instead of growing forever.
	w.appends = bytes.Count(data[:goodLen], []byte{'\n'})
	if live == 0 && w.appends > 0 {
		w.compact(nil)
	}
	return w, nil
}

// replay decodes the journal into the surviving job set. It returns the
// byte length of the valid record prefix; callers truncate the file there.
func replay(data []byte) (jobs map[string]*Job, maxGen uint64, goodLen int) {
	jobs = make(map[string]*Job)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn trailing record
		}
		line := data[off : off+nl]
		var rec walRec
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		if rec.Gen > maxGen {
			maxGen = rec.Gen
		}
		switch rec.Op {
		case "create":
			j := &Job{
				ID:      rec.ID,
				Gen:     rec.Gen,
				Kind:    rec.Kind,
				State:   StateQueued,
				Created: time.Unix(0, rec.T),
			}
			if rec.P != nil {
				j.Params = *rec.P
			}
			jobs[rec.ID] = j
		case "finish":
			if j, ok := jobs[rec.ID]; ok && j.Gen == rec.Gen {
				j.State = rec.State
				j.Err = rec.Err
				j.Info = rec.Info
				j.Finished = time.Unix(0, rec.T)
				if rec.Exp != 0 {
					j.ExpiresAt = time.Unix(0, rec.Exp)
				}
			}
		case "remove":
			delete(jobs, rec.ID)
		default:
			// Unknown op from a newer format: stop at the last understood
			// record rather than guessing.
			return jobs, maxGen, off
		}
		off += nl + 1
	}
	return jobs, maxGen, off
}

func (w *journal) lock() {
	if w != nil {
		w.mu.Lock()
	}
}

func (w *journal) unlock() {
	if w != nil {
		w.mu.Unlock()
	}
}

// append journals one record with write+fsync; callers hold w.mu so
// journal order matches apply order. The in-memory state remains
// authoritative when the append fails, but the failure is surfaced — logged
// once and counted — so operators notice the journal diverging before they
// rely on restart recovery.
func (w *journal) append(rec walRec) {
	if w == nil || w.f == nil {
		return // memory backend, or closed: stragglers are documented no-ops
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return // walRec contains only marshalable fields; unreachable
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		w.noteError("write", err)
		return
	}
	if err := w.f.Sync(); err != nil {
		// The record reached the OS but maybe not the platter; the replayed
		// state after a crash may be missing it.
		w.noteError("fsync", err)
		return
	}
	w.appends++
}

func (w *journal) noteError(op string, err error) {
	w.errs.Add(1)
	w.logOnce.Do(func() {
		slog.Error("jobs: journal append failed; in-memory state keeps serving but restart recovery may lose or resurrect jobs",
			"op", op, "path", w.path, "err", err)
	})
}

// compactMinAppends is the smallest journal that compaction rewrites.
const compactMinAppends = 1024

// dominated reports whether dead records dominate the journal: it holds at
// least compactMinAppends records and at least 4x the snapshot of live jobs
// (two records each at most). Callers hold w.mu.
func (w *journal) dominated(live int) bool {
	return w.appends >= compactMinAppends && w.appends >= 4*(2*live)
}

// compact rewrites the journal as a minimal snapshot of the live job set
// (one create record per job, plus a finish record for finished ones),
// atomically via temp file + rename, and resets the append budget. Callers
// hold w.mu.
func (w *journal) compact(live []Job) {
	var buf bytes.Buffer
	n := 0
	for _, j := range live {
		p := j.Params
		recs := []walRec{{Op: "create", ID: j.ID, Gen: j.Gen, Kind: j.Kind, T: j.Created.UnixNano(), P: &p}}
		if j.State.Finished() {
			recs = append(recs, walRec{
				Op: "finish", ID: j.ID, Gen: j.Gen, State: j.State, Err: j.Err, Info: j.Info,
				T: j.Finished.UnixNano(), Exp: j.ExpiresAt.UnixNano(),
			})
		}
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			buf.Write(line)
			buf.WriteByte('\n')
			n++
		}
	}
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return
	}
	if err := writeSync(f, buf.Bytes()); err != nil || os.Rename(tmp, w.path) != nil {
		os.Remove(tmp)
		return
	}
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The snapshot replaced the journal but reopening failed; keep the
		// old handle (it appends to the unlinked file — durability degrades
		// to the snapshot until the next successful compaction).
		return
	}
	w.f.Close()
	w.f = nf
	w.appends = n
}

// close flushes and closes the journal; later appends are no-ops.
func (w *journal) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Sync()
		w.f.Close()
		w.f = nil
	}
}
