package unionfind

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestNewLockTableDefaults(t *testing.T) {
	lt := NewLockTable(0)
	if lt.Stripes() != DefaultLockStripes {
		t.Fatalf("Stripes = %d, want %d", lt.Stripes(), DefaultLockStripes)
	}
	lt8 := NewLockTable(8)
	if lt8.Stripes() != 8 {
		t.Fatalf("Stripes = %d, want 8", lt8.Stripes())
	}
}

func TestNewLockTableRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLockTable(%d) did not panic", n)
				}
			}()
			NewLockTable(n)
		}()
	}
}

func TestMergeLockedSequentialMatchesRemSP(t *testing.T) {
	// Used from a single goroutine, MergeLocked must produce the same
	// partition as the sequential REMSP.
	rng := rand.New(rand.NewSource(11))
	const n = 300
	seq := identity(n)
	conc := identity(n)
	lt := NewLockTable(64)
	for k := 0; k < 2*n; k++ {
		x, y := Label(rng.Intn(n)), Label(rng.Intn(n))
		MergeRemSP(seq, x, y)
		MergeLocked(conc, lt, x, y)
	}
	for i := 0; i < n-1; i++ {
		if Same(seq, Label(i), Label(i+1)) != Same(conc, Label(i), Label(i+1)) {
			t.Fatalf("partitions diverge at %d", i)
		}
	}
}

// TestMergeLockedConcurrentStress merges a fixed random edge list from many
// goroutines and verifies the final partition against a sequential oracle
// over the same edges. Run with -race to exercise the memory-model claims.
func TestMergeLockedConcurrentStress(t *testing.T) {
	lt := NewLockTable(1 << 10)
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 200 + rng.Intn(800)
		edges := make([][2]Label, 4*n)
		for i := range edges {
			edges[i] = [2]Label{Label(rng.Intn(n)), Label(rng.Intn(n))}
		}

		oracle := identity(n)
		for _, e := range edges {
			MergeRemSP(oracle, e[0], e[1])
		}

		p := identity(n)
		var wg sync.WaitGroup
		chunk := (len(edges) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(edges))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(part [][2]Label) {
				defer wg.Done()
				for _, e := range part {
					MergeLocked(p, lt, e[0], e[1])
				}
			}(edges[lo:hi])
		}
		wg.Wait()

		for i := 0; i < n-1; i++ {
			a, b := Label(i), Label(i+1)
			if Same(p, a, b) != Same(oracle, a, b) {
				t.Fatalf("trial %d: concurrent partition differs from oracle at (%d,%d)", trial, a, b)
			}
		}
		// The REM invariant must also survive concurrency.
		for i, v := range p {
			if int(v) > i {
				t.Fatalf("trial %d: p[%d] = %d violates REM invariant", trial, i, v)
			}
		}
	}
}

// TestConcurrentDisjointRanges mimics PAREMSP's boundary phase: goroutines
// merge across the seams of disjoint label ranges.
func TestConcurrentDisjointRanges(t *testing.T) {
	const chunks = 8
	const per = 100
	n := chunks * per
	p := identity(n)
	// Pre-merge within chunks sequentially (the "scan" phase).
	for c := 0; c < chunks; c++ {
		base := c * per
		for i := 1; i < per; i++ {
			MergeRemSP(p, Label(base), Label(base+i))
		}
	}
	// Concurrent boundary merges: join chunk c to chunk c+1.
	lt := NewLockTable(256)
	var wg sync.WaitGroup
	for c := 0; c < chunks-1; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			MergeLocked(p, lt, Label(c*per+per-1), Label((c+1)*per))
		}(c)
	}
	wg.Wait()
	root := FindRoot(p, 0)
	for i := 0; i < n; i++ {
		if FindRoot(p, Label(i)) != root {
			t.Fatalf("element %d not merged into the single component", i)
		}
	}
}
