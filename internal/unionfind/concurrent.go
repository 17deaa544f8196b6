package unionfind

import (
	"sync"
	"sync/atomic"
)

// LockTable is the lock array used by the concurrent lock-based REM union
// ("MERGER", Algorithm 8 of the paper, after Patwary-Refsnes-Manne IPDPS'12).
// The paper locks individual nodes (omp_set_lock(&lock_array[root])); a
// per-node sync.Mutex array for a half-gigabyte image would cost more memory
// than the image itself, so the table stripes: node i maps to lock i&mask.
// Striping only ever *adds* mutual exclusion, so the algorithm's correctness
// argument (re-check root-ness under the lock, retry on change) is preserved.
type LockTable struct {
	locks []sync.Mutex
	mask  Label
}

// DefaultLockStripes is the lock-table size used when callers pass 0.
const DefaultLockStripes = 1 << 14

// NewLockTable builds a lock table with the given number of stripes, which
// must be a power of two (0 selects DefaultLockStripes).
func NewLockTable(stripes int) *LockTable {
	if stripes == 0 {
		stripes = DefaultLockStripes
	}
	if stripes < 1 || stripes&(stripes-1) != 0 {
		panic("unionfind: lock stripes must be a power of two")
	}
	return &LockTable{locks: make([]sync.Mutex, stripes), mask: Label(stripes - 1)}
}

// Stripes returns the number of lock stripes.
func (lt *LockTable) Stripes() int { return len(lt.locks) }

func (lt *LockTable) lock(i Label)   { lt.locks[i&lt.mask].Lock() }
func (lt *LockTable) unlock(i Label) { lt.locks[i&lt.mask].Unlock() }

// MergeLocked is the concurrent lock-based REM union with splicing —
// Algorithm 8 ("MERGER") of the paper. Multiple goroutines may call it on the
// same parent array concurrently, provided all of them use the same lock
// table and the array is only mutated through MergeLocked for the duration
// of the phase.
//
// Reads of p outside the lock may observe stale parents; the algorithm
// re-checks root-ness after acquiring the lock and retries from its current
// position if another goroutine got there first, exactly as in the paper.
// The splicing writes outside the lock (p[rootx] = p[rooty]) are benign in
// the paper's OpenMP model; under the Go memory model they must be atomic to
// avoid torn reads, so all accesses go through sync/atomic.
func MergeLocked(p []Label, lt *LockTable, x, y Label) Label {
	rootx, rooty := x, y
	for {
		px := atomic.LoadInt32(&p[rootx])
		py := atomic.LoadInt32(&p[rooty])
		if px == py {
			return px
		}
		if px > py {
			if rootx == px { // rootx looks like a root
				lt.lock(rootx)
				success := false
				if atomic.LoadInt32(&p[rootx]) == rootx { // still a root?
					atomic.StoreInt32(&p[rootx], py)
					success = true
				}
				lt.unlock(rootx)
				if success {
					return py
				}
				continue // lost the race; re-read and carry on
			}
			// Interior node: splice and climb, as in the sequential REMSP.
			atomic.StoreInt32(&p[rootx], py)
			rootx = px
		} else {
			if rooty == py {
				lt.lock(rooty)
				success := false
				if atomic.LoadInt32(&p[rooty]) == rooty {
					atomic.StoreInt32(&p[rooty], px)
					success = true
				}
				lt.unlock(rooty)
				if success {
					return px
				}
				continue
			}
			atomic.StoreInt32(&p[rooty], px)
			rooty = py
		}
	}
}
