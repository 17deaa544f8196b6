package core

import "testing"

// TestChunkStartsInvariants pins the chunk geometry every kernel's
// correctness rests on: chunks cover [0, h) exactly, every chunk starts on
// a whole scan unit (an even row for PAREMSP's row pairs), draws labels from
// its own range, and unit counts differ by at most one across chunks.
func TestChunkStartsInvariants(t *testing.T) {
	for h := 1; h <= 70; h++ {
		k := Kernel{Rows: h, Unit: 2, Stride: 3}
		numPairs := (h + 1) / 2
		for threads := 1; threads <= numPairs+1; threads++ {
			chunks := k.chunks(threads)
			if want := min(threads, numPairs); len(chunks) != want {
				t.Fatalf("h=%d threads=%d: %d chunks, want %d", h, threads, len(chunks), want)
			}
			if chunks[0].Lo != 0 || chunks[len(chunks)-1].Hi != h {
				t.Fatalf("h=%d threads=%d: range [%d, %d), want [0, %d)", h, threads, chunks[0].Lo, chunks[len(chunks)-1].Hi, h)
			}
			minPairs, maxPairs := 1<<30, 0
			for c, ch := range chunks {
				if ch.I != c || ch.Lo%2 != 0 || ch.Offset != Label(ch.Lo/2*3) {
					t.Fatalf("h=%d threads=%d: chunk %d is %+v", h, threads, c, ch)
				}
				if ch.Hi <= ch.Lo || (c > 0 && chunks[c-1].Hi != ch.Lo) {
					t.Fatalf("h=%d threads=%d: chunk %d (%d..%d) is empty or not adjacent", h, threads, c, ch.Lo, ch.Hi)
				}
				pairs := (ch.Hi - ch.Lo + 1) / 2
				minPairs, maxPairs = min(minPairs, pairs), max(maxPairs, pairs)
			}
			if maxPairs-minPairs > 1 {
				t.Fatalf("h=%d threads=%d: pair counts unbalanced (%d..%d)", h, threads, minPairs, maxPairs)
			}
		}
	}
}
