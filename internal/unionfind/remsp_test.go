package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// identity returns a parent array p[i] = i of length n.
func identity(n int) []Label {
	p := make([]Label, n)
	for i := range p {
		p[i] = Label(i)
	}
	return p
}

// quickFind is the test oracle: every node stores its set's id directly, and
// a union relabels every member of one set. O(n) per union, obviously right.
type quickFind []Label

func newQuickFind(n int) quickFind { return quickFind(identity(n)) }

func (q quickFind) Find(x Label) Label { return q[x] }

func (q quickFind) Union(x, y Label) {
	from, to := q[y], q[x]
	for i, id := range q {
		if id == from {
			q[i] = to
		}
	}
}

func TestMergeRemSPBasic(t *testing.T) {
	p := identity(6)
	root := MergeRemSP(p, 2, 4)
	if root != 2 {
		t.Fatalf("Merge(2,4) root = %d, want 2 (smaller index wins)", root)
	}
	if !Same(p, 2, 4) {
		t.Fatal("2 and 4 not in the same set after merge")
	}
	if Same(p, 2, 3) {
		t.Fatal("3 spuriously merged")
	}
}

func TestMergeRemSPIdempotent(t *testing.T) {
	p := identity(4)
	MergeRemSP(p, 1, 3)
	before := append([]Label(nil), p...)
	MergeRemSP(p, 1, 3)
	MergeRemSP(p, 3, 1)
	for i := range p {
		if p[i] != before[i] {
			t.Fatalf("re-merging changed p[%d]: %d -> %d", i, before[i], p[i])
		}
	}
}

func TestMergeRemSPSelf(t *testing.T) {
	p := identity(3)
	if root := MergeRemSP(p, 1, 1); root != 1 {
		t.Fatalf("Merge(1,1) = %d, want 1", root)
	}
}

func TestMergeRemSPChain(t *testing.T) {
	// Merge a chain n-1..0 pairwise; everything must end up with root 0.
	const n = 64
	p := identity(n)
	for i := n - 1; i > 0; i-- {
		MergeRemSP(p, Label(i), Label(i-1))
	}
	for i := 0; i < n; i++ {
		if FindRoot(p, Label(i)) != 0 {
			t.Fatalf("FindRoot(%d) = %d, want 0", i, FindRoot(p, Label(i)))
		}
	}
}

// TestRemInvariant checks p[x] <= x after arbitrary merge sequences — the
// property that makes Flatten a single forward sweep.
func TestRemInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		p := identity(n)
		for k := 0; k < 3*n; k++ {
			MergeRemSP(p, Label(rng.Intn(n)), Label(rng.Intn(n)))
		}
		for i, v := range p {
			if int(v) > i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRemSPMatchesOracle drives MergeRemSP and the quick-find oracle
// with identical random operation sequences and compares the resulting
// partitions.
func TestMergeRemSPMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		p := identity(n)
		oracle := newQuickFind(n)
		for k := 0; k < 2*n; k++ {
			x, y := Label(rng.Intn(n)), Label(rng.Intn(n))
			MergeRemSP(p, x, y)
			oracle.Union(x, y)
		}
		// Partitions agree iff same-set relations agree on sampled pairs and
		// on all adjacent pairs.
		for i := 0; i < n-1; i++ {
			a, b := Label(i), Label(i+1)
			if Same(p, a, b) != (oracle.Find(a) == oracle.Find(b)) {
				return false
			}
		}
		for k := 0; k < 4*n; k++ {
			a, b := Label(rng.Intn(n)), Label(rng.Intn(n))
			if Same(p, a, b) != (oracle.Find(a) == oracle.Find(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFindVariantsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		p := identity(n)
		for k := 0; k < 2*n; k++ {
			MergeRemSP(p, Label(rng.Intn(n)), Label(rng.Intn(n)))
		}
		for i := 0; i < n; i++ {
			want := FindRoot(p, Label(i))
			pc := append([]Label(nil), p...)
			ph := append([]Label(nil), p...)
			ps := append([]Label(nil), p...)
			if FindCompress(pc, Label(i)) != want ||
				FindHalve(ph, Label(i)) != want ||
				FindSplit(ps, Label(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFindCompressFlattensPath verifies that after FindCompress every node on
// the traversed path points directly at the root.
func TestFindCompressFlattensPath(t *testing.T) {
	// Hand-build a chain 5 -> 4 -> 3 -> 2 -> 1 -> 0.
	p := []Label{0, 0, 1, 2, 3, 4}
	if got := FindCompress(p, 5); got != 0 {
		t.Fatalf("FindCompress(5) = %d, want 0", got)
	}
	for i := 1; i <= 5; i++ {
		if p[i] != 0 {
			t.Fatalf("after compression p[%d] = %d, want 0", i, p[i])
		}
	}
}

func TestFindHalveShortensPath(t *testing.T) {
	p := []Label{0, 0, 1, 2, 3, 4}
	FindHalve(p, 5)
	// Path halving points every other node at its grandparent.
	if p[5] != 3 || p[3] != 1 {
		t.Fatalf("halving result %v, want p[5]=3 p[3]=1", p)
	}
}

func TestFindSplitShortensPath(t *testing.T) {
	p := []Label{0, 0, 1, 2, 3, 4}
	FindSplit(p, 5)
	// Path splitting points *every* node at its grandparent.
	if p[5] != 3 || p[4] != 2 || p[3] != 1 || p[2] != 0 {
		t.Fatalf("splitting result %v", p)
	}
}
