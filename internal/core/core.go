// Package core implements the paper's contributions and the one two-pass
// skeleton they share. Every labeler is a Kernel — a scan strategy feeding REM's
// union-find with splicing, plus the seam merge and relabel loops that go
// with it — and Kernel.Run runs the paper's four phases (Alg. 7) over it:
// chunked scans over disjoint label ranges, seam merge, FLATTEN, relabel.
// The sequential algorithms are the one-chunk case.
//
//   - CCLREMSP: decision-tree scan + REMSP (paper Alg. 1), never split.
//   - PAREMSP: the paper's parallel algorithm (Alg. 7) over the
//     two-rows-at-a-time scan (Alg. 6); one thread is AREMSP (Alg. 5).
//   - PBREMSP: the bit-packed run scan (beyond the paper), over an image or
//     an already-packed bitmap; one thread is BREMSP.
//
// The gray-level and volume labelers (internal/grayccl, internal/vol3d) are
// kernels of the same skeleton.
package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binimg"
	"repro/internal/poll"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/unionfind"
)

// Label aliases the repository-wide label type.
type Label = binimg.Label

// RemSink records label equivalences in a REM parent array; it is the sink
// that turns a scan strategy into a *REMSP algorithm. It implements
// scan.Sink.
//
// A sink created with offset > 0 draws labels from [offset+1, ...); PAREMSP
// gives each chunk a disjoint range this way (paper Alg. 7: "count <- start
// x col"). The shared parent array is only written at indices the owning
// chunk creates, so concurrent chunk scans are data-race-free.
type RemSink struct {
	p     []Label
	count Label // last label handed out; next is count+1
}

// NewRemSink allocates a parent array for at most maxLabels labels, slot 0
// reserved for background.
func NewRemSink(maxLabels int) *RemSink {
	return &RemSink{p: make([]Label, maxLabels+1)}
}

// NewRemSinkShared wraps a shared parent array, handing out labels starting
// at offset+1.
func NewRemSinkShared(p []Label, offset Label) *RemSink {
	return &RemSink{p: p, count: offset}
}

// NewLabel creates the next provisional label: count++, p[count] = count
// (paper Alg. 6 lines 26-28).
func (s *RemSink) NewLabel() Label {
	s.count++
	s.p[s.count] = s.count
	return s.count
}

// Merge is REM's union with splicing (paper Alg. 2).
func (s *RemSink) Merge(x, y Label) Label {
	return unionfind.MergeRemSP(s.p, x, y)
}

// Count returns the highest label handed out.
func (s *RemSink) Count() Label { return s.count }

// Parents exposes the parent array for the flatten pass.
func (s *RemSink) Parents() []Label { return s.p }

// Scratch holds the reusable equivalence buffers every labeler draws from.
// A zero Scratch is ready to use; reusing one across calls amortizes the
// parent-array allocation, the dominant non-raster allocation of every
// REMSP algorithm. One Scratch serves every kernel — binary, gray and
// volume — so the buffer grows to the largest request and is reused across
// modes. For the bit-packed algorithms it additionally retains the packed
// bitmap, the per-chunk run buffers and the table their runs fold into
// (Options.Components). A Scratch must not be shared by concurrent
// labelings.
type Scratch struct {
	p    []Label
	lt   *unionfind.LockTable
	bm   *binimg.Bitmap
	runs []*scan.RunSet
	rank []Label
	accs []stats.Acc   // the last labeling's fold, one per final label
	fold time.Duration // and its wall time
}

// parents returns a parent array with n+1 slots (slot 0 is the
// background), growing the retained buffer only when needed. The slots keep
// whatever the previous labeling left in them: a scan initializes every
// label it creates, and no later phase reads a slot no scan created, so
// nothing needs clearing.
func (s *Scratch) parents(n int) []Label {
	if cap(s.p) < n+1 {
		s.p = make([]Label, n+1)
	}
	return s.p[:n+1]
}

// lockTable returns the retained stripe-lock table. A table whose run has
// completed has every stripe unlocked, so reuse across labelings is safe.
func (s *Scratch) lockTable() *unionfind.LockTable {
	if s.lt == nil {
		s.lt = unionfind.NewLockTable(0)
	}
	return s.lt
}

// bitmap returns the retained packed raster.
func (s *Scratch) bitmap() *binimg.Bitmap {
	if s.bm == nil {
		s.bm = &binimg.Bitmap{}
	}
	return s.bm
}

// runSets returns n retained run buffers, one per chunk.
func (s *Scratch) runSets(n int) []*scan.RunSet {
	for len(s.runs) < n {
		s.runs = append(s.runs, &scan.RunSet{})
	}
	return s.runs[:n]
}

// ranks returns a zeroed rank table for n final labels, slot 0 unused.
func (s *Scratch) ranks(n Label) []Label {
	if cap(s.rank) < int(n)+1 {
		s.rank = make([]Label, n+1)
	}
	s.rank = s.rank[:n+1]
	clear(s.rank)
	return s.rank
}

// accTable returns the retained fold table: n empty accumulators for a
// w x h raster, one per final label.
func (s *Scratch) accTable(n Label, w, h int) []stats.Acc {
	s.accs = slices.Grow(s.accs[:0], int(n))[:n]
	empty := stats.NewAcc(w, h)
	for i := range s.accs {
		s.accs[i] = empty
	}
	return s.accs
}

// Components returns the per-component records the last run-kernel
// labeling into s (PBREMSP and its bitmap entry points) folded from its
// runs (Options.Components), indexed by label-1, with the fold's wall
// time. They equal stats.Components of the label map the labeling writes,
// Runs included. After such a labeling that folded nothing the list is
// empty. The list is the one allocation: s keeps only the accumulators.
func (s *Scratch) Components() ([]stats.Component, time.Duration) {
	out := make([]stats.Component, len(s.accs))
	for i := range s.accs {
		out[i] = s.accs[i].Component(Label(i + 1))
	}
	return out, s.fold
}

// Options configures a labeling run.
type Options struct {
	// Threads is the number of chunks scanned and relabeled concurrently
	// (the paper's OpenMP thread count). 0 selects runtime.GOMAXPROCS(0);
	// either way a raster never splits into more chunks than it has scan
	// units, and one chunk is the sequential algorithm.
	Threads int
	// CountOnly stops the labeling after FLATTEN (phase III), which already
	// yields the component count: phase IV never runs, its time reads 0,
	// and the label map is left undefined. A kernel that scans into the
	// map uses it as scratch without clearing it first; one that keeps its
	// provisional labels elsewhere does not touch it.
	CountOnly bool
	// Components asks a kernel that keeps its runs (PBREMSP and its
	// bitmap entry points) to fold every run into the statistics of its
	// final label once its phases are done, a pass over the runs instead
	// of the pixels, timed apart from the phases; Scratch.Components
	// returns the records. Phase III then renumbers even a CountOnly
	// labeling, whose map stays untouched. Other kernels ignore it.
	Components bool
}

// PhaseTimes records per-phase wall time of one run. The paper's Fig. 5a
// plots speedup of Scan ("local") alone; Fig. 5b plots Scan+Merge
// ("local + merge").
type PhaseTimes struct {
	Scan    time.Duration // phase I: chunked scans
	Merge   time.Duration // phase II: seam merges
	Flatten time.Duration // phase III: FLATTEN over the label space
	Relabel time.Duration // phase IV: provisional -> final rewrite
}

// Total returns the sum of all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Scan + p.Merge + p.Flatten + p.Relabel
}

// Local returns the paper's "local" quantity (scan phase only, Fig. 5a).
func (p PhaseTimes) Local() time.Duration { return p.Scan }

// LocalMerge returns the paper's "local + merge" quantity (Fig. 5b).
func (p PhaseTimes) LocalMerge() time.Duration { return p.Scan + p.Merge }

// Kernel is one two-pass labeler as Run sees it: a raster of Rows
// rows (image rows, or volume planes) scanned Unit rows at a time, each unit
// drawing at most Stride provisional labels, plus three per-chunk callbacks.
// A kernel whose Unit is all of Rows is never split.
type Kernel struct {
	Rows   int
	Unit   int
	Stride int

	// Scan labels rows [c.Lo, c.Hi), drawing provisional labels from
	// c.Offset+1 in c.P, and returns the last label it created (c.Offset
	// if none). Rows above c.Lo are never read. It polls c.Done every
	// poll.Rows rows and reports false once it has stopped.
	Scan func(c *Chunk) (Label, bool)
	// Seam unites row c.Lo with row c.Lo-1, the last row of the chunk
	// above, through merge. It is called for every chunk but the first, so
	// a kernel that is never split leaves it nil.
	Seam func(c *Chunk, merge func(x, y Label))
	// Relabel rewrites the chunk's provisional labels through the
	// flattened c.P, polling like Scan.
	Relabel func(c *Chunk) bool
	// Renumber, when set, reorders the n final labels after FLATTEN by
	// rewriting c.P over every chunk's created labels. It runs inside
	// phase III, and not at all for a CountOnly labeling that asks for no
	// components, whose count is the same in any order.
	Renumber func(chunks []Chunk, n Label)
}

// Chunk is the share of a raster one goroutine scans and relabels.
type Chunk struct {
	I      int     // index, 0 at the top
	Lo, Hi int     // rows [Lo, Hi)
	Offset Label   // the chunk's labels start at Offset+1
	P      []Label // parent array shared by every chunk
	Done   <-chan struct{}

	last Label // highest label Scan created
}

// Run labels the kernel's raster in the paper's four phases (Alg. 7),
// checking ctx between them:
//
//	I    scan every chunk concurrently, each from its own label range;
//	II   merge the seam above every chunk but the first with the paper's
//	     lock-based MERGER (Alg. 8);
//	III  FLATTEN each chunk's created labels, chunk by chunk, then
//	     Renumber them when the kernel has it;
//	IV   relabel every chunk concurrently, unless opt.CountOnly.
//
// The raster splits into chunks of whole units, as many as opt.Threads
// allows (see Options.Threads); the parent array and the MERGER lock table
// come from sc (nil allocates them). The seam-merge and flatten phases
// touch the equivalence table, not the raster, and are a small fraction of
// the total, so they are not polled; Run checks ctx after each phase
// instead. It returns the component count, and the phase times accumulated
// so far along with ctx's error when canceled.
func (k *Kernel) Run(ctx context.Context, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	var times PhaseTimes
	if k.Rows == 0 || k.Stride == 0 {
		return 0, times, nil
	}
	if sc == nil {
		sc = &Scratch{}
	}
	p := sc.parents(k.units() * k.Stride)
	done := poll.Done(ctx)
	chunks := k.chunks(opt.Threads)
	for i := range chunks {
		chunks[i].P, chunks[i].Done = p, done
	}

	t0 := time.Now()
	ok := each(len(chunks), func(i int) bool {
		c := &chunks[i]
		var ok bool
		c.last, ok = k.Scan(c)
		return ok
	})
	times.Scan = time.Since(t0)
	if !ok {
		return 0, times, poll.Err(ctx)
	}

	t0 = time.Now()
	if len(chunks) > 1 {
		lt := sc.lockTable()
		merge := func(x, y Label) { unionfind.MergeLocked(p, lt, x, y) }
		each(len(chunks)-1, func(i int) bool {
			k.Seam(&chunks[i+1], merge)
			return true
		})
	}
	times.Merge = time.Since(t0)
	if poll.Stopped(done) {
		return 0, times, poll.Err(ctx)
	}

	// Chunk ranges ascend with the chunk index and REM keeps p[i] <= i, so
	// flattening them in order numbers components exactly as one sweep over
	// the whole label space would, without walking the gaps between ranges.
	t0 = time.Now()
	var n Label
	for i := range chunks {
		n = unionfind.Flatten(p, chunks[i].Offset+1, chunks[i].last, n)
	}
	if k.Renumber != nil && (opt.Components || !opt.CountOnly) {
		k.Renumber(chunks, n)
	}
	times.Flatten = time.Since(t0)
	if poll.Stopped(done) {
		return 0, times, poll.Err(ctx)
	}
	if opt.CountOnly {
		return int(n), times, nil
	}

	t0 = time.Now()
	ok = each(len(chunks), func(i int) bool { return k.Relabel(&chunks[i]) })
	times.Relabel = time.Since(t0)
	if !ok {
		return 0, times, poll.Err(ctx)
	}
	return int(n), times, nil
}

// units returns the number of scan units in the raster.
func (k *Kernel) units() int { return (k.Rows + k.Unit - 1) / k.Unit }

// chunkCount resolves a thread count for a raster of units scan units:
// 0 means GOMAXPROCS, and no chunk is smaller than one unit.
func chunkCount(threads, units int) int {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return min(threads, units)
}

// chunks splits the raster into chunkCount chunks of whole units, as evenly
// as possible (unit counts differ by at most one; paper Alg. 7 lines 2-7),
// each drawing labels from the range its first unit owns.
func (k *Kernel) chunks(threads int) []Chunk {
	units := k.units()
	cs := make([]Chunk, chunkCount(threads, units))
	base, rem := units/len(cs), units%len(cs)
	u := 0
	for i := range cs {
		cs[i] = Chunk{I: i, Lo: u * k.Unit, Offset: Label(u * k.Stride)}
		u += base
		if i < rem {
			u++
		}
		cs[i].Hi = min(u*k.Unit, k.Rows)
	}
	return cs
}

// each calls f for every index in [0, n), one goroutine per index when
// n > 1, and reports whether every call returned true.
func each(n int, f func(i int) bool) bool {
	if n == 1 {
		return f(0)
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !f(i) {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// RelabelFlat is the Relabel phase of every kernel whose labels form a flat
// raster: it rewrites each nonzero provisional label in l — the chunk's
// rows — through c.P (label(e) <- p[label(e)]), polling c.Done every
// poll.Rows rows of w labels. Reports whether it ran to completion.
func RelabelFlat(c *Chunk, l []Label, w int) bool {
	p := c.P
	block := max(poll.Rows*w, 1<<12) // floor: narrow rasters don't poll every few pixels
	for lo := 0; lo < len(l); lo += block {
		if poll.Stopped(c.Done) {
			return false
		}
		seg := l[lo:min(lo+block, len(l))]
		for i, v := range seg {
			if v != 0 {
				seg[i] = p[v]
			}
		}
	}
	return true
}

// CCLREMSP is the paper's Algorithm 1: decision-tree scan phase, FLATTEN
// analysis phase, labeling phase — a kernel that is never split. It labels
// img into lm (reshaped with Reset; consecutive labels 1..n, background 0)
// drawing equivalence buffers from sc (nil allocates fresh ones), polls ctx
// every 64 rows, and returns n with the phase times. A canceled labeling
// leaves lm and sc undefined but reusable. Of opt only CountOnly applies,
// since the kernel never splits.
func CCLREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	w, h := img.Width, img.Height
	reshape(lm, w, h, opt)
	k := Kernel{
		Rows: h, Unit: h, Stride: scan.MaxProvisionalLabels(w, h),
		Scan: func(c *Chunk) (Label, bool) {
			sink := NewRemSinkShared(c.P, c.Offset)
			ok := scan.DecisionTree(img, lm, sink, c.Lo, c.Hi, c.Done)
			return sink.count, ok
		},
		Relabel: func(c *Chunk) bool { return RelabelFlat(c, lm.L[c.Lo*w:c.Hi*w], w) },
	}
	return k.Run(ctx, sc, opt)
}

// reshape readies the label map a kernel scans into. A scan writes a label
// only at a foreground pixel and reads one only at a foreground pixel it
// has already labeled, so the stale labels a count-only labeling leaves at
// background pixels are never read; the relabel pass reads every pixel, so
// a full labeling starts from zeros.
func reshape(lm *binimg.LabelMap, w, h int, opt Options) {
	if opt.CountOnly {
		lm.Reshape(w, h)
	} else {
		lm.Reset(w, h)
	}
}
