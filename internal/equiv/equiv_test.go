package equiv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/unionfind"
)

func TestNewLabelConsecutive(t *testing.T) {
	tb := New(4)
	if tb.Count() != 0 {
		t.Fatalf("fresh Count = %d, want 0", tb.Count())
	}
	for want := Label(1); want <= 4; want++ {
		if got := tb.NewLabel(); got != want {
			t.Fatalf("NewLabel = %d, want %d", got, want)
		}
	}
	if tb.Count() != 4 {
		t.Fatalf("Count = %d, want 4", tb.Count())
	}
}

func TestFreshLabelsAreSingletons(t *testing.T) {
	tb := New(3)
	a, b := tb.NewLabel(), tb.NewLabel()
	if tb.Rep(a) != a || tb.Rep(b) != b {
		t.Fatal("fresh labels are not their own representatives")
	}
	if got := tb.SetMembers(a); len(got) != 1 || got[0] != a {
		t.Fatalf("SetMembers(%d) = %v", a, got)
	}
}

func TestResolveSmallerRepWins(t *testing.T) {
	tb := New(4)
	a := tb.NewLabel() // 1
	b := tb.NewLabel() // 2
	if r := tb.Resolve(b, a); r != a {
		t.Fatalf("Resolve rep = %d, want %d", r, a)
	}
	if tb.Rep(b) != a {
		t.Fatalf("Rep(%d) = %d, want %d", b, tb.Rep(b), a)
	}
}

func TestResolveIdempotent(t *testing.T) {
	tb := New(4)
	a, b := tb.NewLabel(), tb.NewLabel()
	tb.Resolve(a, b)
	members := tb.SetMembers(a)
	tb.Resolve(a, b)
	tb.Resolve(b, a)
	after := tb.SetMembers(a)
	if len(members) != len(after) {
		t.Fatalf("re-resolving changed the set: %v -> %v", members, after)
	}
}

func TestResolveMergesLists(t *testing.T) {
	tb := New(6)
	for i := 0; i < 6; i++ {
		tb.NewLabel()
	}
	tb.Resolve(1, 3)
	tb.Resolve(2, 4)
	tb.Resolve(3, 2) // merges {1,3} and {2,4}
	got := tb.SetMembers(1)
	if len(got) != 4 {
		t.Fatalf("merged set = %v, want 4 members", got)
	}
	for _, m := range got {
		if tb.Rep(m) != 1 {
			t.Fatalf("member %d has rep %d, want 1", m, tb.Rep(m))
		}
	}
	if tb.Rep(5) != 5 || tb.Rep(6) != 6 {
		t.Fatal("untouched labels disturbed")
	}
}

func TestRepIsAlwaysMinimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		tb := New(n)
		for i := 0; i < n; i++ {
			tb.NewLabel()
		}
		for k := 0; k < 2*n; k++ {
			tb.Resolve(Label(1+rng.Intn(n)), Label(1+rng.Intn(n)))
		}
		for l := Label(1); l <= Label(n); l++ {
			r := tb.Rep(l)
			if r > l {
				return false // representative must be the set minimum
			}
			for _, m := range tb.SetMembers(l) {
				if m < r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesUnionFind drives the He table and REMSP with identical merges
// and compares the partitions.
func TestMatchesUnionFind(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		tb := New(n)
		p := make([]Label, n+1)
		for i := range p {
			p[i] = Label(i)
		}
		for i := 0; i < n; i++ {
			tb.NewLabel()
		}
		for k := 0; k < 2*n; k++ {
			x, y := Label(1+rng.Intn(n)), Label(1+rng.Intn(n))
			tb.Resolve(x, y)
			unionfind.MergeRemSP(p, x, y)
		}
		for k := 0; k < 4*n; k++ {
			a, b := Label(1+rng.Intn(n)), Label(1+rng.Intn(n))
			if (tb.Rep(a) == tb.Rep(b)) != unionfind.Same(p, a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenConsecutive(t *testing.T) {
	tb := New(5)
	for i := 0; i < 5; i++ {
		tb.NewLabel()
	}
	tb.Resolve(1, 3)
	tb.Resolve(4, 5)
	n := tb.Flatten()
	if n != 3 {
		t.Fatalf("Flatten = %d, want 3", n)
	}
	want := map[Label]Label{1: 1, 2: 2, 3: 1, 4: 3, 5: 3}
	for l, w := range want {
		if tb.Rep(l) != w {
			t.Fatalf("after Flatten Rep(%d) = %d, want %d", l, tb.Rep(l), w)
		}
	}
}

func TestFlattenEmpty(t *testing.T) {
	tb := New(0)
	if n := tb.Flatten(); n != 0 {
		t.Fatalf("Flatten of empty table = %d, want 0", n)
	}
}

// TestFlattenMatchesUnionFindFlatten: identical merge histories must produce
// identical final label assignments across the two equivalence machineries
// (both number sets by their minimum member, in increasing order).
func TestFlattenMatchesUnionFindFlatten(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		tb := New(n)
		p := make([]Label, n+1)
		for i := range p {
			p[i] = Label(i)
		}
		for i := 0; i < n; i++ {
			tb.NewLabel()
		}
		for k := 0; k < 2*n; k++ {
			x, y := Label(1+rng.Intn(n)), Label(1+rng.Intn(n))
			tb.Resolve(x, y)
			unionfind.MergeRemSP(p, x, y)
		}
		nt := tb.Flatten()
		np := unionfind.Flatten(p, 1, Label(n), 0)
		if nt != np {
			return false
		}
		for l := Label(1); l <= Label(n); l++ {
			if tb.Rep(l) != p[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
