package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlattenSingletons(t *testing.T) {
	// Labels 1..4, no merges: flatten must number them 1..4.
	p := []Label{0, 1, 2, 3, 4}
	n := Flatten(p, 1, 4, 0)
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	for i := 1; i <= 4; i++ {
		if p[i] != Label(i) {
			t.Fatalf("p[%d] = %d, want %d", i, p[i], i)
		}
	}
}

func TestFlattenMergedPair(t *testing.T) {
	p := []Label{0, 1, 2, 3}
	MergeRemSP(p, 2, 3) // {2,3} with root 2
	n := Flatten(p, 1, 3, 0)
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if p[1] != 1 || p[2] != 2 || p[3] != 2 {
		t.Fatalf("flattened p = %v, want [0 1 2 2]", p)
	}
}

func TestFlattenRenumbersConsecutively(t *testing.T) {
	// Sets {1,3}, {2}, {4,5}: final labels must be 1,2,3 in first-seen order.
	p := []Label{0, 1, 2, 3, 4, 5}
	MergeRemSP(p, 1, 3)
	MergeRemSP(p, 4, 5)
	n := Flatten(p, 1, 5, 0)
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	want := []Label{0, 1, 2, 1, 3, 3}
	for i, w := range want {
		if p[i] != w {
			t.Fatalf("p = %v, want %v", p, want)
		}
	}
}

func TestFlattenZeroCount(t *testing.T) {
	p := []Label{0}
	if n := Flatten(p, 1, 0, 0); n != 0 {
		t.Fatalf("n = %d, want 0", n)
	}
}

// Property: after Flatten, labels are exactly 1..n, members of one original
// set share one final label, and members of different sets get different
// final labels.
func TestPropertyFlattenPartitionFaithful(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(120)
		p := make([]Label, count+1)
		for i := range p {
			p[i] = Label(i)
		}
		oracle := newQuickFind(count + 1)
		for k := 0; k < count; k++ {
			x := Label(1 + rng.Intn(count))
			y := Label(1 + rng.Intn(count))
			MergeRemSP(p, x, y)
			oracle.Union(x, y)
		}
		n := Flatten(p, 1, Label(count), 0)
		// Surjectivity onto 1..n and consistency with the oracle partition.
		seen := make(map[Label]bool)
		for i := 1; i <= count; i++ {
			if p[i] < 1 || p[i] > n {
				return false
			}
			seen[p[i]] = true
			for j := 1; j < i; j++ {
				sameOracle := oracle.Find(Label(i)) == oracle.Find(Label(j))
				if sameOracle != (p[i] == p[j]) {
					return false
				}
			}
		}
		return len(seen) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// uncreated is what a recycled parent array may hold in slots no scan of
// this labeling created; Flatten must neither read nor rewrite them.
const uncreated Label = -1

// gapped returns a parent array of n slots, all uncreated, with the given
// labels created as singletons — the label space of a labeling whose chunks
// draw from disjoint ranges.
func gapped(n int, created ...Label) []Label {
	p := make([]Label, n)
	for i := range p {
		p[i] = uncreated
	}
	for _, l := range created {
		p[l] = l
	}
	return p
}

func TestFlattenSparseSkipsUncreated(t *testing.T) {
	// Labels 2 and 5 created (two chunks with offsets 1 and 4), merged.
	p := gapped(8, 2, 5)
	MergeRemSP(p, 2, 5)
	n := Flatten(p, 2, 2, 0)
	n = Flatten(p, 5, 5, n)
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
	if p[2] != 1 || p[5] != 1 {
		t.Fatalf("p = %v, want p[2]=p[5]=1", p)
	}
	for _, i := range []int{0, 1, 3, 4, 6, 7} {
		if p[i] != uncreated {
			t.Fatalf("uncreated slot %d disturbed: %v", i, p)
		}
	}
}

func TestFlattenSparseConsecutive(t *testing.T) {
	// Created labels 1, 4, 6; {4,6} merged. Final labels must be 1 and 2.
	p := gapped(7, 1, 4, 6)
	MergeRemSP(p, 4, 6)
	var n Label
	for _, l := range []Label{1, 4, 6} {
		n = Flatten(p, l, l, n)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if p[1] != 1 || p[4] != 2 || p[6] != 2 {
		t.Fatalf("p = %v", p)
	}
}

// TestFlattenSparseEqualsFlattenOnDense: flattening a dense label space one
// range at a time, ranges cut at random, gives what one call over the whole
// space gives.
func TestFlattenSparseEqualsFlattenOnDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(100)
		a := make([]Label, count+1)
		for i := range a {
			a[i] = Label(i)
		}
		for k := 0; k < count; k++ {
			MergeRemSP(a, Label(1+rng.Intn(count)), Label(1+rng.Intn(count)))
		}
		b := append([]Label(nil), a...)
		na := Flatten(a, 1, Label(count), 0)
		var nb Label
		for lo := 1; lo <= count; {
			hi := min(lo+rng.Intn(8), count)
			nb = Flatten(b, Label(lo), Label(hi), nb)
			lo = hi + 1
		}
		if na != nb {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
