// Package unionfind implements the disjoint-set (union-find) machinery the
// paper builds on: REM's algorithm with splicing ("REMSP", Patwary-Blair-
// Manne, SEA 2010; Dijkstra 1976), the concurrent lock-based variant
// ("MERGER", Patwary-Refsnes-Manne, IPDPS 2012) used by PAREMSP's boundary
// phase, an idiomatic lock-free CAS variant, and the classical finds (path
// compression, splitting, halving); the CCLLRPC baseline links by rank over
// FindCompress.
//
// All operations are free functions over a raw parent slice ([]int32)
// rather than interface methods, so the CCL scan loops inline them.
//
// REM invariant: for every node x, p[x] <= x. Unions always point the larger
// index at the smaller, so parent chains strictly decrease, which is what
// makes the FLATTEN pass (flatten.go) a single forward sweep.
package unionfind

import "repro/internal/binimg"

// Label is the node/label index type (int32, aliased from binimg).
type Label = binimg.Label

// MergeRemSP unites the sets containing x and y using REM's algorithm with
// splicing and returns the root of the united tree. This is Algorithm 2 of
// the paper, verbatim.
//
// The splicing compression: when rootx must climb to p[rootx], the old parent
// is remembered in z, p[rootx] is redirected to p[rooty] (making the subtree
// rooted at rootx a sibling of rooty), and the climb continues from z. Every
// traversed node gets a strictly smaller parent, so later finds are cheaper,
// and no second pass is needed.
func MergeRemSP(p []Label, x, y Label) Label {
	rootx, rooty := x, y
	for p[rootx] != p[rooty] {
		if p[rootx] > p[rooty] {
			if rootx == p[rootx] {
				p[rootx] = p[rooty]
				return p[rootx]
			}
			z := p[rootx]
			p[rootx] = p[rooty]
			rootx = z
		} else {
			if rooty == p[rooty] {
				p[rooty] = p[rootx]
				return p[rootx]
			}
			z := p[rooty]
			p[rooty] = p[rootx]
			rooty = z
		}
	}
	return p[rootx]
}

// FindRoot follows parent pointers to the root of x's tree without modifying
// the structure.
func FindRoot(p []Label, x Label) Label {
	for p[x] != x {
		x = p[x]
	}
	return x
}

// FindCompress follows parent pointers to the root and fully compresses the
// traversed path (two-pass path compression).
func FindCompress(p []Label, x Label) Label {
	root := x
	for p[root] != root {
		root = p[root]
	}
	for p[x] != root {
		x, p[x] = p[x], root
	}
	return root
}

// Same reports whether x and y are currently in the same set, without
// modifying the structure.
func Same(p []Label, x, y Label) bool {
	return FindRoot(p, x) == FindRoot(p, y)
}
