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
	"time"

	"repro/internal/binimg"
	"repro/internal/poll"
	"repro/internal/scan"
	"repro/internal/stats"
)

// PBREMSP labels img with the parallel bit-packed algorithm into lm,
// drawing every reusable buffer — parent array, packed bitmap, per-chunk
// run buffers — from sc (nil allocates fresh ones). Each chunk packs its own
// rows into the shared bitmap (rows never share words, so the packing is
// race-free) before scanning them, so the packing cost parallelizes with the
// scan and is reported inside the Scan phase; packing runs at memcpy speed
// and is not polled. Options, results and cancellation are PAREMSP's,
// except that opt.CountOnly leaves lm untouched (lm may then be nil): the
// runs carry the provisional labels, so nothing is written to lm until
// phase IV. With opt.Components the kernel folds its runs into
// per-component records after its phases, which sc.Components returns, so
// pass a non-nil sc to read them; with CountOnly as well the labeling
// yields its count and its components and writes no map.
func PBREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	bm := sc.bitmap()
	bm.Reset(img.Width, img.Height)
	return pbremsp(ctx, bm, img, lm, sc, opt, false)
}

// PBREMSPBitmap is PBREMSP over an already-packed bitmap — the entry point
// for callers that hold the packed raster natively and never build the
// byte raster.
func PBREMSPBitmap(ctx context.Context, bm *binimg.Bitmap, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	return pbremsp(ctx, bm, nil, lm, sc, opt, false)
}

// PAREMSPBitmap is PBREMSPBitmap numbering components as PAREMSP numbers
// them over the unpacked image: the label map is PAREMSP's, byte for byte,
// at any thread count. The run kernel labels runs, not pixels (the
// run-based two-scan of He, Chao and Suzuki, IEEE TIP 2008), and the REMSP
// merge underneath is unchanged; only the order of the final labels
// differs, and a rank pass over the runs after FLATTEN (rankPairOrder)
// restores PAREMSP's. The pass is timed inside phase III and skipped for
// opt.CountOnly, unless opt.Components asks for records, which are
// numbered in the same order.
func PAREMSPBitmap(ctx context.Context, bm *binimg.Bitmap, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	return pbremsp(ctx, bm, nil, lm, sc, opt, true)
}

// pbremsp is the run-scan kernel. When src is non-nil each chunk packs its
// rows of src into bm (already Reset) before scanning. pairOrder numbers
// the components in PAREMSP's order instead of raster order.
//
// Phase I runs the run-based scan on every chunk concurrently, each chunk
// recording its labeled runs into its own RunSet. Chunk label ranges are
// disjoint (the chunk starting at row r draws from r*RunLabelStride(w)), so
// the shared parent array needs no synchronization during the scan. Phase II
// merges across chunk seams at run granularity: the first-row runs of every
// chunk but the first are united with the overlapping last-row runs of the
// chunk above using the concurrent MERGER. Phase III runs FLATTEN over each
// chunk's created labels (and the rank pass, for pairOrder); phase IV
// writes the final label map row by row, runs and the background between
// them, so the map needs no clearing first. For opt.Components the fold
// (foldRuns) follows the phases: neither phase IV nor the fold changes the
// runs or the flattened parents the other reads.
func pbremsp(ctx context.Context, bm *binimg.Bitmap, src *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options, pairOrder bool) (int, PhaseTimes, error) {
	w, h := bm.Width, bm.Height
	sc.accs, sc.fold = sc.accs[:0], 0
	if !opt.CountOnly {
		lm.Reshape(w, h)
	}
	runs := sc.runSets(chunkCount(opt.Threads, h))
	k := Kernel{
		// The run scan is single-row, so chunks need no row-pair alignment.
		Rows: h, Unit: 1, Stride: scan.RunLabelStride(w),
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
	if pairOrder {
		k.Renumber = func(chunks []Chunk, n Label) { rankPairOrder(chunks, runs, sc.ranks(n)) }
	}
	n, times, err := k.Run(ctx, sc, opt)
	// With no component there is nothing to fold, and an empty raster's
	// run sets were never scanned.
	if err != nil || !opt.Components || n == 0 {
		return n, times, err
	}
	t0 := time.Now()
	ok := foldRuns(sc.accTable(Label(n), w, h), sc.p, runs, poll.Done(ctx))
	sc.fold = time.Since(t0)
	if !ok {
		return 0, times, poll.Err(ctx)
	}
	return n, times, nil
}

// rankPairOrder renumbers a flattened run labeling in PAREMSP's order.
// PAREMSP's label k is the k-th component by its first pixel in the order
// (y/2, x, y mod 2), the order its pair-row scan visits pixels. Walking each
// row pair's two run lists merged by run start, top row first on a tie (two
// runs that start together touch, so either order would do), meets every
// component first at the run holding that pixel, so giving
// each final label the next rank the first time it is seen, and composing
// the ranks into p, numbers the components as PAREMSP does: one pass over
// the runs and one over the created labels, with no sort and no pixel
// pass. Chunks are whole rows, not row pairs, so a pair's two rows can lie
// in two chunks; each row is read from the run set of the chunk that owns
// it. rank has n+1 zeroed slots.
func rankPairOrder(chunks []Chunk, runs []*scan.RunSet, rank []Label) {
	p := chunks[0].P
	var next Label
	ci := 0
	rowRuns := func(y int) []scan.Run {
		for y >= chunks[ci].Hi {
			ci++
		}
		return runs[ci].RowRuns(y)
	}
	h := chunks[len(chunks)-1].Hi
	for y := 0; y < h; y += 2 {
		top := rowRuns(y)
		var bottom []scan.Run
		if y+1 < h {
			bottom = rowRuns(y + 1)
		}
		for len(top) > 0 || len(bottom) > 0 {
			var r scan.Run
			if len(bottom) == 0 || len(top) > 0 && top[0].Start <= bottom[0].Start {
				r, top = top[0], top[1:]
			} else {
				r, bottom = bottom[0], bottom[1:]
			}
			if f := p[r.Label]; rank[f] == 0 {
				next++
				rank[f] = next
			}
		}
	}
	for i := range chunks {
		c := &chunks[i]
		for l := c.Offset + 1; l <= c.last; l++ {
			p[l] = rank[p[l]]
		}
	}
}

// foldRuns folds every run of every run set into the stats.Acc of its
// final label f = p[r.Label], accs[f-1]: the per-run bookkeeping of
// run-based two-scan labeling (He, Chao and Suzuki, IEEE TIP 2008) that
// band.Stream keeps too, here over the runs the scan recorded instead of a
// label map's pixels. A run's sums are exact integers, so the records
// equal stats.Components of the map relabelRuns writes from the same runs.
// It polls done every poll.Rows rows and reports whether it ran to
// completion.
func foldRuns(accs []stats.Acc, p []Label, sets []*scan.RunSet, done <-chan struct{}) bool {
	for _, rs := range sets {
		for i, rows := 0, rs.Rows(); i < rows; i++ {
			if i%poll.Rows == 0 && poll.Stopped(done) {
				return false
			}
			y := rs.Row0 + i
			for _, r := range rs.RowRuns(y) {
				accs[p[r.Label]-1].AddRun(y, int(r.Start), int(r.End))
			}
		}
	}
	return true
}

// relabelRuns writes the final labels of rs's rows into lm: each row's
// runs, one parent lookup and one contiguous fill per run instead of a
// lookup per pixel (labeling phase, run-granular), and zeros in the gaps
// between them, so every pixel of the rows is written exactly once and a
// reused map needs no clearing. It polls done every poll.Rows rows and
// reports whether it ran to completion.
func relabelRuns(lm *binimg.LabelMap, p []Label, rs *scan.RunSet, done <-chan struct{}) bool {
	w := lm.Width
	for i, rows := 0, rs.Rows(); i < rows; i++ {
		if i%poll.Rows == 0 && poll.Stopped(done) {
			return false
		}
		y := rs.Row0 + i
		row := lm.L[y*w : (y+1)*w]
		x := int32(0)
		for _, r := range rs.RowRuns(y) {
			clear(row[x:r.Start])
			final := p[r.Label]
			seg := row[r.Start:r.End]
			for k := range seg {
				seg[k] = final
			}
			x = r.End
		}
		clear(row[x:])
	}
	return true
}
