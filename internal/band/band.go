// Package band labels rasters far larger than memory by consuming them as
// fixed-height row bands: each band is labeled with BREMSP's word-parallel
// run scan, and consecutive bands are stitched by unioning the runs of the
// two seam rows. Peak memory is O(one band + the per-band equivalence table),
// independent of the image height, so a 100k-row raster streams through the
// same few megabytes a single band needs.
//
// # Seam-merge invariant
//
// The only coupling between two consecutive bands is the pair of rows at
// their boundary: the last row of band k and the first row of band k+1.
// Under 8-connectivity, a component crosses the boundary iff a foreground
// run [s, e) of the first row of band k+1 overlaps a run [ps, pe) of the
// last row of band k with pe >= s and ps <= e — exactly the overlap
// criterion scan.Runs applies between adjacent rows inside a band, executed
// here by scan.MergeRuns over the retained seam runs. Because every
// within-band equivalence is already resolved before the seam merge (the
// band's parent array is flattened first), unioning the seam runs is
// sufficient: no pixel, run, or label of an earlier row can introduce a
// connection the seam rows do not witness.
//
// Per band the labeler:
//
//  1. run-scans the band in its own local label space (scan.Runs with a REM
//     sink over a band-sized parent array, reused across bands);
//  2. flattens the local equivalences (unionfind.Flatten);
//  3. unions the band's first-row runs with the previous band's seam runs
//     (scan.MergeRuns), attaching local roots to global component ids and
//     merging global ids that the seam proves equivalent;
//  4. folds every run into the per-component statistics accumulator — area,
//     bounding box, centroid sums, run count — so no label raster is ever
//     materialized;
//  5. retains the last row's runs, relabeled with global ids, as the seam
//     for the next band.
//
// Global state grows only with the number of components discovered (plus
// one retired id per cross-band merge), which is proportional to the result
// the caller asked for, never with the pixel count.
package band

import (
	"context"
	"fmt"
	"io"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/poll"
	"repro/internal/scan"
	"repro/internal/unionfind"
)

// Label aliases the repository-wide label type.
type Label = binimg.Label

// DefaultBandRows is the band height used when Options.BandRows is zero:
// large enough that the per-band flatten and seam costs are amortized over
// many rows, small enough that typical large rasters stay in tens of
// megabytes — the per-band working set is dominated by the equivalence
// tables at ~4*width*rows bytes (about 17 MiB for a 16384-pixel-wide
// image). Extremely wide rasters should pick a smaller band.
const DefaultBandRows = 256

// Source delivers an image as consecutive row bands. pnm.BandReader is the
// production implementation (raw P4/P5 ingest).
type Source interface {
	// Width returns the image width in pixels.
	Width() int
	// Height returns the image height in pixels.
	Height() int
	// ReadBand decodes the next band of up to maxRows rows into dst
	// (reshaped with Reset) and returns the rows delivered; (0, io.EOF)
	// after the last row.
	ReadBand(dst *binimg.Bitmap, maxRows int) (int, error)
}

// Options configures Stream.
type Options struct {
	// BandRows is the band height in rows; 0 selects DefaultBandRows.
	BandRows int
	// EmitRow, when non-nil, is called once per image row, in row order,
	// with the row's foreground runs. Run labels are band-local; resolve
	// maps one to the component's provisional global id, which Result.
	// FinalLabel converts to the final 1..NumComponents numbering once the
	// stream completes. cmd/ccstream spills rows this way to produce a
	// CCL1 label stream in two sequential passes.
	EmitRow func(y int, runs []binimg.Run, resolve func(Label) Label) error
	// Ctx, when non-nil, cancels the stream cooperatively: Stream checks it
	// between bands (the natural row-block granularity of this package) and
	// returns its error once it is done. nil never cancels.
	Ctx context.Context
}

// ComponentStats is the per-component result of a streamed labeling: the
// statistics of stats.Component plus the foreground run count, computed
// run-by-run during the band scans without a label raster.
type ComponentStats struct {
	// Label is the final component number, 1..NumComponents in discovery
	// (band, then raster) order.
	Label Label
	// Area is the component's pixel count.
	Area int64
	// MinX, MinY, MaxX, MaxY are the bounding box (inclusive).
	MinX, MinY, MaxX, MaxY int
	// CentroidX, CentroidY are the mean foreground coordinates.
	CentroidX, CentroidY float64
	// Runs counts the component's maximal horizontal foreground runs.
	Runs int64
}

// Result is the outcome of one streamed labeling.
type Result struct {
	// Width, Height are the image dimensions from the source header.
	Width, Height int
	// NumComponents is the number of 8-connected components.
	NumComponents int
	// Components holds per-component statistics, indexed by Label-1.
	Components []ComponentStats
	// ForegroundPixels is the total object-pixel count (the sum of areas).
	ForegroundPixels int64

	finalOf []Label
}

// FinalLabel maps a provisional global id observed through Options.EmitRow
// to the component's final label (1..NumComponents); 0 for out-of-range ids.
func (r *Result) FinalLabel(g Label) Label {
	if g <= 0 || int(g) >= len(r.finalOf) {
		return 0
	}
	return r.finalOf[g]
}

// Stream labels the image delivered by src band by band and returns its
// component statistics. The source's full raster is never resident: only the
// current band's bitmap, run set and parent array, the seam runs, and the
// per-component accumulators are held.
func Stream(src Source, opt Options) (*Result, error) {
	w, h := src.Width(), src.Height()
	bandRows := opt.BandRows
	if bandRows <= 0 {
		bandRows = DefaultBandRows
	}
	if h > 0 && bandRows > h {
		bandRows = h
	}
	l := newLabeler(w, bandRows)
	done := poll.Done(opt.Ctx)
	var bm binimg.Bitmap
	y := 0
	for y < h {
		if poll.Stopped(done) {
			return nil, poll.Err(opt.Ctx)
		}
		n, err := src.ReadBand(&bm, bandRows)
		if n > 0 {
			if bm.Width != w || bm.Height != n || n > bandRows {
				return nil, fmt.Errorf("band: source delivered a %dx%d band, want %dx%d (max %d rows)",
					bm.Width, bm.Height, w, n, bandRows)
			}
			if err2 := l.addBand(y, &bm, opt.EmitRow); err2 != nil {
				return nil, err2
			}
			y += n
		}
		if err != nil {
			if err == io.EOF {
				break
			}
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	if y != h {
		return nil, fmt.Errorf("band: source delivered %d of %d rows", y, h)
	}
	return l.finish(w, h), nil
}

// acc accumulates one component's statistics; it lives at the component's
// global DSU root and is folded into the winner on every cross-band merge.
type acc struct {
	area, sumX, sumY, runs int64
	minX, minY             int32
	maxX, maxY             int32
}

func (a *acc) addRun(y, s, e int) {
	n := int64(e - s)
	a.area += n
	a.sumX += n * int64(s+e-1) / 2 // sum of s..e-1; n*(s+e-1) is always even
	a.sumY += n * int64(y)
	a.runs++
	if int32(s) < a.minX {
		a.minX = int32(s)
	}
	if int32(e-1) > a.maxX {
		a.maxX = int32(e - 1)
	}
	if int32(y) < a.minY {
		a.minY = int32(y)
	}
	if int32(y) > a.maxY {
		a.maxY = int32(y)
	}
}

func (a *acc) fold(b *acc) {
	a.area += b.area
	a.sumX += b.sumX
	a.sumY += b.sumY
	a.runs += b.runs
	if b.minX < a.minX {
		a.minX = b.minX
	}
	if b.maxX > a.maxX {
		a.maxX = b.maxX
	}
	if b.minY < a.minY {
		a.minY = b.minY
	}
	if b.maxY > a.maxY {
		a.maxY = b.maxY
	}
}

// labeler is the streaming engine. Per-band buffers (pl, glob, rs) are sized
// once for the band height and reused; global state (gp, st) grows with the
// component count only.
type labeler struct {
	w, bandRows int

	pl   []Label      // band-local REM parent array
	glob []Label      // band-local root -> provisional global id
	rs   scan.RunSet  // band-local labeled runs
	seam []binimg.Run // previous band's last row, Label = global id

	gp []Label // global DSU over provisional component ids; gp[0] unused
	st []acc   // per-global-id statistics, valid at DSU roots
}

func newLabeler(w, bandRows int) *labeler {
	n := scan.MaxRunLabels(w, bandRows)
	return &labeler{
		w:        w,
		bandRows: bandRows,
		pl:       make([]Label, n+1),
		glob:     make([]Label, n+1),
		gp:       make([]Label, 1, 64),
		st:       make([]acc, 1, 64),
	}
}

func (l *labeler) gfind(x Label) Label {
	gp := l.gp
	for gp[x] != x {
		gp[x] = gp[gp[x]] // path halving
		x = gp[x]
	}
	return x
}

// gunion unites two distinct global roots, folding the loser's statistics
// into the winner. The smaller (earlier-discovered) id wins, which keeps the
// final numbering in discovery order.
func (l *labeler) gunion(a, b Label) Label {
	if a > b {
		a, b = b, a
	}
	l.gp[b] = a
	l.st[a].fold(&l.st[b])
	return a
}

func (l *labeler) newGlobal() Label {
	g := Label(len(l.gp))
	l.gp = append(l.gp, g)
	l.st = append(l.st, acc{
		minX: int32(l.w), minY: int32(1 << 30),
		maxX: -1, maxY: -1,
	})
	return g
}

// addBand labels one band whose first row is absolute row y0 (steps 1-5 of
// the package comment).
func (l *labeler) addBand(y0 int, bm *binimg.Bitmap, emit func(int, []binimg.Run, func(Label) Label) error) error {
	rows := bm.Height

	// 1. Band-local run scan. Labels restart at 1 every band; the parent
	// array needs no clearing because the sink initializes each label it
	// creates and the flatten sweeps only labels 1..count.
	sink := core.NewRemSinkShared(l.pl, 0)
	scan.Runs(bm, sink, 0, rows, &l.rs, nil)

	// 2. Resolve within-band equivalences: pl[lab] is now the compact local
	// root id (1..nloc) of every provisional label.
	nloc := unionfind.Flatten(l.pl, 1, sink.Count(), 0)

	// 3. Seam merge: attach local roots to global components.
	glob := l.glob[:nloc+1]
	clear(glob)
	if y0 > 0 && len(l.seam) > 0 {
		scan.MergeRuns(l.rs.RowRuns(0), l.seam, func(x, y Label) {
			lr := l.pl[x]
			g := l.gfind(y)
			if glob[lr] == 0 {
				glob[lr] = g
				return
			}
			if r := l.gfind(glob[lr]); r != g {
				glob[lr] = l.gunion(r, g)
			} else {
				glob[lr] = r
			}
		})
	}
	for lr := Label(1); lr <= nloc; lr++ {
		if glob[lr] == 0 {
			glob[lr] = l.newGlobal()
		}
	}

	// 4. Fold every run into its component's accumulator; emit rows.
	resolve := func(lab Label) Label { return l.gfind(glob[l.pl[lab]]) }
	for i := 0; i < rows; i++ {
		y := y0 + i
		runs := l.rs.RowRuns(i)
		for _, r := range runs {
			g := l.gfind(glob[l.pl[r.Label]])
			l.st[g].addRun(y, int(r.Start), int(r.End))
		}
		if emit != nil {
			if err := emit(y, runs, resolve); err != nil {
				return err
			}
		}
	}

	// 5. Retain the last row as the next seam, in global ids.
	l.seam = append(l.seam[:0], l.rs.RowRuns(rows-1)...)
	for i := range l.seam {
		l.seam[i].Label = l.gfind(glob[l.pl[l.seam[i].Label]])
	}
	return nil
}

func (l *labeler) finish(w, h int) *Result {
	res := &Result{Width: w, Height: h}
	finalOf := make([]Label, len(l.gp))
	var n Label
	for g := 1; g < len(l.gp); g++ {
		if l.gp[g] == Label(g) {
			n++
			finalOf[g] = n
		}
	}
	comps := make([]ComponentStats, 0, n)
	for g := 1; g < len(l.gp); g++ {
		if finalOf[g] == 0 {
			finalOf[g] = finalOf[l.gfind(Label(g))]
			continue
		}
		a := &l.st[g]
		res.ForegroundPixels += a.area
		comps = append(comps, ComponentStats{
			Label: finalOf[g],
			Area:  a.area,
			MinX:  int(a.minX), MinY: int(a.minY),
			MaxX: int(a.maxX), MaxY: int(a.maxY),
			CentroidX: float64(a.sumX) / float64(a.area),
			CentroidY: float64(a.sumY) / float64(a.area),
			Runs:      a.runs,
		})
	}
	res.NumComponents = int(n)
	res.Components = comps
	res.finalOf = finalOf
	return res
}
