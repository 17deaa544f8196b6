package core

import (
	"context"

	"repro/internal/binimg"
	"repro/internal/scan"
)

// PAREMSP labels img with the paper's parallel algorithm (Algorithm 7) into
// lm (reshaped with Reset; consecutive labels 1..n, background 0), drawing
// the shared parent array from sc (nil allocates a fresh one). Reusing lm
// and sc across calls makes sustained labeling allocation-free; this is the
// entry point the service layer's buffer pools feed. With one thread it is
// the paper's best sequential algorithm, AREMSP (Algorithm 5).
//
// Phase I divides the image row-wise into opt.Threads chunks of whole row
// pairs (the scan processes two rows at a time) and runs the AREMSP scan on
// every chunk concurrently. Chunk label ranges are disjoint: the chunk
// starting at row r draws provisional labels from (r/2)*stride+1 where
// stride is the per-row-pair label budget, so no two pixels share a
// provisional label across chunks and the shared parent array needs no
// synchronization during the scan.
//
// Phase II merges across chunk seams: for every boundary row (the first row
// of every chunk but the first) and every foreground pixel e there, its
// already-labeled neighbors b, a, c in the row above belong to the previous
// chunk; each adjacency is united with the concurrent MERGER. Boundary rows
// are processed in parallel.
//
// Phase III runs FLATTEN over each chunk's created labels, so final labels
// stay consecutive. Phase IV rewrites the label raster. The
// scans and relabels poll ctx every 64 rows and Run checks ctx between
// phases; a canceled run returns ctx's error with the phase times
// accumulated so far, and leaves lm and sc undefined but reusable.
func PAREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	w := img.Width
	lm.Reset(w, img.Height)
	k := Kernel{
		Rows: img.Height, Unit: 2, Stride: scan.RowPairLabelStride(w),
		Scan: func(c *Chunk) (Label, bool) {
			sink := NewRemSinkShared(c.P, c.Offset)
			ok := scan.PairRows(img, lm, sink, c.Lo, c.Hi, c.Done)
			return sink.count, ok
		},
		Seam:    func(c *Chunk, merge func(x, y Label)) { mergeBoundaryRow(img, lm, merge, c.Lo) },
		Relabel: func(c *Chunk) bool { return RelabelFlat(c, lm.L[c.Lo*w:c.Hi*w], w) },
	}
	return k.Run(ctx, sc, opt)
}

// mergeBoundaryRow unites every foreground pixel of the given chunk-start
// row with its foreground neighbors b, a, c in the row above (which belongs
// to the previous chunk). This is the paper's Alg. 7 lines 10-20.
func mergeBoundaryRow(img *binimg.Image, lm *binimg.LabelMap, merge func(x, y Label), row int) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	base := row * w
	up := base - w
	for x := 0; x < w; x++ {
		if pix[base+x] == 0 {
			continue
		}
		le := lab[base+x]
		if pix[up+x] != 0 { // b
			merge(le, lab[up+x])
			continue // b's row-above neighbors already cover a and c
		}
		if x > 0 && pix[up+x-1] != 0 { // a
			merge(le, lab[up+x-1])
		}
		if x+1 < w && pix[up+x+1] != 0 { // c
			merge(le, lab[up+x+1])
		}
	}
}
