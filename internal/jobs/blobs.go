package jobs

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// ErrNoBlob reports that a blob store holds no payload for the requested
// job/generation — the job was evicted, removed, or never completed.
var ErrNoBlob = errors.New("jobs: no stored result")

const (
	resExt = ".res"
	inExt  = ".in"
	// blobMagic versions the on-disk result encoding; a format change bumps
	// it and old files fail to open, so Store.Result evicts their jobs and
	// they are re-runnable.
	blobMagic = "ccblob1\n"
)

// blobStore holds job result payloads, keyed by (id, generation): a
// resubmitted job writes under a new generation and never collides with a
// stale one. Completed results stay resident in RAM for zero-copy serving.
// All methods are safe for concurrent use.
//
// With a directory (the disk backend) every payload is also written through
// to a flat directory of content-addressed files (`<job-id>-<gen>.res` for
// gob-encoded results, `<job-id>-<gen>.in` for the raw request inputs that
// make restart recovery possible) with a temp-file + rename + fsync
// protocol. Under MaxResultBytes pressure the Store calls Shed, which drops
// resident copies oldest-first — the disk copy remains authoritative, so
// nothing is lost, only re-read on the next fetch. Without a directory (the
// memory backend) it writes no files, discards inputs, and Shed frees
// nothing, so the Store bounds memory by evicting whole jobs instead.
type blobStore struct {
	dir string // "" on the memory backend

	mu      sync.Mutex
	results map[string]*blob
	inputs  map[string]blobInput
	// order records Put order for FIFO shedding; stale ids (deleted or
	// re-put) are skipped and periodically compacted away.
	order     []string
	memBytes  int64
	diskBytes int64
	// spilled counts results whose RAM copy Shed dropped while the disk
	// copy was kept.
	spilled int64
}

type blob struct {
	gen      uint64
	r        *Result // resident copy; nil once spilled
	memSize  int64
	diskSize int64
}

type blobInput struct {
	gen  uint64
	size int64
}

func newBlobStore() *blobStore {
	return &blobStore{results: make(map[string]*blob), inputs: make(map[string]blobInput)}
}

func (b *blobStore) path(id string, gen uint64, ext string) string {
	return filepath.Join(b.dir, id+"-"+strconv.FormatUint(gen, 10)+ext)
}

// removeFile deletes a payload file; a no-op without a directory.
func (b *blobStore) removeFile(id string, gen uint64, ext string) {
	if b.dir != "" {
		os.Remove(b.path(id, gen, ext))
	}
}

// parseBlobName splits "<id>-<gen>.<ext>"; ok=false for foreign files.
func parseBlobName(name string) (id string, gen uint64, isInput, ok bool) {
	switch {
	case strings.HasSuffix(name, resExt):
		name = strings.TrimSuffix(name, resExt)
	case strings.HasSuffix(name, inExt):
		name = strings.TrimSuffix(name, inExt)
		isInput = true
	default:
		return "", 0, false, false
	}
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return "", 0, false, false
	}
	gen, err := strconv.ParseUint(name[i+1:], 10, 64)
	if err != nil {
		return "", 0, false, false
	}
	return name[:i], gen, isInput, true
}

// openDir attaches the blob directory and scans it once: files matching a
// live (id, gen) from replayed metadata are adopted into the byte
// accounting (results start spilled — no RAM copy until first read);
// everything else is an orphan from a crash window and is deleted.
func (b *blobStore) openDir(dir string, keepRes, keepIn map[string]uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("jobs: blob dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("jobs: blob scan: %w", err)
	}
	b.dir = dir
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		id, gen, isInput, ok := parseBlobName(name)
		live := false
		if ok {
			keep := keepRes
			if isInput {
				keep = keepIn
			}
			want, present := keep[id]
			live = present && want == gen
		}
		if !live {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		if isInput {
			b.inputs[id] = blobInput{gen: gen, size: info.Size()}
		} else {
			b.results[id] = &blob{gen: gen, diskSize: info.Size()}
		}
		b.diskBytes += info.Size()
	}
	return nil
}

// writeSync writes data to f, fsyncs and closes it.
func writeSync(f *os.File, data []byte) error {
	_, err := f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFile writes data atomically: temp file in the same directory, fsync,
// rename over the final name. A crash leaves either the old file or the new
// one, never a torn blob; stray temp files are swept at the next open.
func (b *blobStore) writeFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(b.dir, "tmp-*")
	if err != nil {
		return err
	}
	if err = writeSync(tmp, data); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Put stores the result payload for (id, gen), replacing any previous
// payload stored under the same id at the same or an older generation. If
// the stored payload is a NEWER generation the put is dropped: the caller
// is a stale completion racing a resubmitted job, and its generation-checked
// metadata transition is about to no-op too — the newer payload must
// survive the race.
func (b *blobStore) Put(id string, gen uint64, r *Result) error {
	var diskSize int64
	if b.dir != "" {
		data, err := encodeResult(r)
		if err != nil {
			return err
		}
		if err := b.writeFile(b.path(id, gen, resExt), data); err != nil {
			return err
		}
		diskSize = int64(len(data))
	}
	memSize := resultBytes(r)
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.results[id]; ok {
		if old.gen > gen {
			// The paths are gen-keyed, so the just-written stale file never
			// clobbered the newer one; discard it.
			b.removeFile(id, gen, resExt)
			return nil
		}
		b.memBytes -= old.memSize
		b.diskBytes -= old.diskSize
		if old.gen != gen {
			b.removeFile(id, old.gen, resExt)
		}
	}
	b.results[id] = &blob{gen: gen, r: r, memSize: memSize, diskSize: diskSize}
	b.order = append(b.order, id)
	b.memBytes += memSize
	b.diskBytes += diskSize
	b.compactOrderLocked()
	return nil
}

// Open returns the payload for (id, gen), reading it back from disk if the
// RAM copy was spilled. ErrNoBlob if absent.
func (b *blobStore) Open(id string, gen uint64) (*Result, error) {
	b.mu.Lock()
	bl, ok := b.results[id]
	if !ok || bl.gen != gen {
		b.mu.Unlock()
		return nil, ErrNoBlob
	}
	r := bl.r
	b.mu.Unlock()
	if r != nil {
		return r, nil
	}
	// Spilled: decode from disk outside the lock. The copy is not re-admitted
	// to RAM — re-admission under byte pressure would just be shed again.
	data, err := os.ReadFile(b.path(id, gen, resExt))
	if err != nil {
		return nil, ErrNoBlob
	}
	return decodeResult(data)
}

// Delete drops the payload (RAM and disk). Unknown keys are a no-op.
func (b *blobStore) Delete(id string, gen uint64) {
	b.mu.Lock()
	if bl, ok := b.results[id]; ok && bl.gen == gen {
		b.memBytes -= bl.memSize
		b.diskBytes -= bl.diskSize
		delete(b.results, id)
	}
	b.mu.Unlock()
	b.removeFile(id, gen, resExt)
}

// PutInput persists the raw request body so the job can be resubmitted
// after a restart. Without a directory it is discarded: the memory backend
// cannot outlive the process, so there is never a restart to resubmit for.
func (b *blobStore) PutInput(id string, gen uint64, data []byte) error {
	if b.dir == "" {
		return nil
	}
	if err := b.writeFile(b.path(id, gen, inExt), data); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.inputs[id]; ok {
		if old.gen > gen {
			// Same newer-generation-wins rule as Put: a delayed persist for a
			// removed-and-resubmitted job must not clobber the input the
			// replacement needs for recovery.
			b.removeFile(id, gen, inExt)
			return nil
		}
		b.diskBytes -= old.size
		if old.gen != gen {
			b.removeFile(id, old.gen, inExt)
		}
	}
	b.inputs[id] = blobInput{gen: gen, size: int64(len(data))}
	b.diskBytes += int64(len(data))
	return nil
}

// Input returns the persisted request body, ErrNoBlob if absent.
func (b *blobStore) Input(id string, gen uint64) ([]byte, error) {
	b.mu.Lock()
	in, ok := b.inputs[id]
	b.mu.Unlock()
	if !ok || in.gen != gen {
		return nil, ErrNoBlob
	}
	data, err := os.ReadFile(b.path(id, gen, inExt))
	if err != nil {
		return nil, ErrNoBlob
	}
	return data, nil
}

// DeleteInput drops the persisted request body.
func (b *blobStore) DeleteInput(id string, gen uint64) {
	if b.dir == "" {
		return
	}
	b.mu.Lock()
	if in, ok := b.inputs[id]; ok && in.gen == gen {
		b.diskBytes -= in.size
		delete(b.inputs, id)
	}
	b.mu.Unlock()
	b.removeFile(id, gen, inExt)
}

// Shed drops resident result copies oldest-first until resident payload
// memory is at most target. Disk copies are untouched, so this is the spill
// (not evict) half of the MaxResultBytes policy: the job stays done and its
// result stays fetchable, only colder. Without a directory there is nowhere
// to spill, so it frees nothing and the Store evicts jobs instead.
func (b *blobStore) Shed(target int64) {
	if b.dir == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < len(b.order) && b.memBytes > target; i++ {
		bl, ok := b.results[b.order[i]]
		if !ok || bl.r == nil {
			continue
		}
		bl.r = nil
		b.memBytes -= bl.memSize
		bl.memSize = 0
		b.spilled++
	}
	b.compactOrderLocked()
}

// compactOrderLocked rebuilds the shed queue when stale entries dominate.
func (b *blobStore) compactOrderLocked() {
	if len(b.order) <= 2*len(b.results)+16 {
		return
	}
	live := b.order[:0]
	for _, id := range b.order {
		if bl, ok := b.results[id]; ok && bl.r != nil {
			live = append(live, id)
		}
	}
	b.order = live
}

// census reports resident payload bytes, on-disk bytes (results and
// retained inputs) and the spill count.
func (b *blobStore) census() (memBytes, diskBytes, spilled int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.memBytes, b.diskBytes, b.spilled
}

// encodeResult serializes a result payload: a magic/version line followed by
// the gob stream. Unexported fields (band.Result's internal relabeling
// scratch) are not encoded; nothing served over the job API needs them.
func encodeResult(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(blobMagic)
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("jobs: encode result: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeResult(data []byte) (*Result, error) {
	if !bytes.HasPrefix(data, []byte(blobMagic)) {
		return nil, fmt.Errorf("jobs: result blob: bad magic")
	}
	var r Result
	if err := gob.NewDecoder(bytes.NewReader(data[len(blobMagic):])).Decode(&r); err != nil {
		return nil, fmt.Errorf("jobs: decode result: %w", err)
	}
	return &r, nil
}
