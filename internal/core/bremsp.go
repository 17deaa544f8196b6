// Bit-packed variants of the paper's algorithms (beyond the paper): PBREMSP
// is PAREMSP with the byte-per-pixel scan replaced by a word-parallel run
// scan over a 1-bit-per-pixel raster, and BREMSP is its one-thread case. The
// scan phase — which dominates PAREMSP's runtime (the paper's Fig. 5a plots
// its speedup alone) — touches 64 pixels per word load and calls the
// union-find sink per run instead of per pixel, and the labeling phase
// writes the final raster run-by-run instead of pixel-by-pixel.

package core

import (
	"context"

	"repro/internal/binimg"
	"repro/internal/poll"
	"repro/internal/scan"
)

// PBREMSP labels img with the parallel bit-packed algorithm into lm,
// drawing every reusable buffer — parent array, packed bitmap, per-chunk
// run buffers — from sc (nil allocates fresh ones). Each chunk packs its own
// rows into the shared bitmap (rows never share words, so the packing is
// race-free) before scanning them, so the packing cost parallelizes with the
// scan and is reported inside the Scan phase; packing runs at memcpy speed
// and is not polled. Options, results and cancellation are PAREMSP's.
func PBREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	bm := sc.bitmap()
	bm.Reset(img.Width, img.Height)
	return pbremsp(ctx, bm, img, lm, sc, opt)
}

// PBREMSPBitmap is PBREMSP over an already-packed bitmap — the entry point
// for callers that hold the packed raster natively (the service's PBM P4
// fast path decodes straight into one, skipping the byte raster entirely).
func PBREMSPBitmap(ctx context.Context, bm *binimg.Bitmap, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	return pbremsp(ctx, bm, nil, lm, sc, opt)
}

// pbremsp is the run-scan kernel. When src is non-nil each chunk packs its
// rows of src into bm (already Reset) before scanning.
//
// Phase I runs the run-based scan on every chunk concurrently, each chunk
// recording its labeled runs into its own RunSet. Chunk label ranges are
// disjoint (the chunk starting at row r draws from r*RunLabelStride(w)), so
// the shared parent array needs no synchronization during the scan. Phase II
// merges across chunk seams at run granularity: the first-row runs of every
// chunk but the first are united with the overlapping last-row runs of the
// chunk above using the concurrent MERGER. Phase III runs FLATTEN over each
// chunk's created labels; phase IV writes the final label map run-by-run.
func pbremsp(ctx context.Context, bm *binimg.Bitmap, src *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	lm.Reset(bm.Width, bm.Height)
	runs := sc.runSets(chunkCount(opt.Threads, bm.Height))
	k := Kernel{
		// The run scan is single-row, so chunks need no row-pair alignment.
		Rows: bm.Height, Unit: 1, Stride: scan.RunLabelStride(bm.Width),
		Scan: func(c *Chunk) (Label, bool) {
			if src != nil {
				bm.FromImageRows(src, c.Lo, c.Hi)
			}
			sink := NewRemSinkShared(c.P, c.Offset)
			ok := scan.Runs(bm, sink, c.Lo, c.Hi, runs[c.I], c.Done)
			return sink.count, ok
		},
		Seam: func(c *Chunk, merge func(x, y Label)) {
			scan.MergeRuns(runs[c.I].RowRuns(c.Lo), runs[c.I-1].RowRuns(c.Lo-1), merge)
		},
		Relabel: func(c *Chunk) bool { return relabelRuns(lm, c.P, runs[c.I], c.Done) },
	}
	return k.Run(ctx, sc, opt)
}

// relabelRuns writes final labels into lm for every run of rs: one parent
// lookup and one contiguous fill per run instead of a lookup per pixel
// (labeling phase, run-granular). It polls done every poll.Rows rows and
// reports whether it ran to completion.
func relabelRuns(lm *binimg.LabelMap, p []Label, rs *scan.RunSet, done <-chan struct{}) bool {
	l := lm.L
	w := lm.Width
	for i, rows := 0, rs.Rows(); i < rows; i++ {
		if i%poll.Rows == 0 && poll.Stopped(done) {
			return false
		}
		y := rs.Row0 + i
		base := y * w
		for _, r := range rs.RowRuns(y) {
			final := p[r.Label]
			seg := l[base+int(r.Start) : base+int(r.End)]
			for k := range seg {
				seg[k] = final
			}
		}
	}
	return true
}
