package scan

import (
	"repro/internal/binimg"
	"repro/internal/poll"
)

// Run aliases the repository-wide run record (a [Start, End) span of
// foreground pixels in one row plus its provisional label).
type Run = binimg.Run

// RunSet records the labeled foreground runs of a contiguous row range — the
// run-granular analogue of the provisional-label raster the pixel scans
// produce. Runs of a row are stored contiguously, rows in order, so the whole
// structure is two flat slices that a Scratch can retain across labelings.
type RunSet struct {
	// Row0 is the absolute index of the first row covered.
	Row0 int
	// Runs holds every run of the range in row order.
	Runs []Run

	rowIdx []int // rowIdx[i]..rowIdx[i+1] bounds row Row0+i's runs
}

// Reset empties the set and re-anchors it at absolute row row0, keeping the
// underlying buffers.
func (rs *RunSet) Reset(row0 int) {
	rs.Row0 = row0
	rs.Runs = rs.Runs[:0]
	rs.rowIdx = append(rs.rowIdx[:0], 0)
}

// Rows returns the number of rows recorded so far.
func (rs *RunSet) Rows() int { return len(rs.rowIdx) - 1 }

// RowRuns returns the runs of absolute row y. It panics when y is outside
// the recorded range.
func (rs *RunSet) RowRuns(y int) []Run {
	i := y - rs.Row0
	return rs.Runs[rs.rowIdx[i]:rs.rowIdx[i+1]]
}

// Runs is the bit-packed run-based first pass (BREMSP/PBREMSP phase I) over
// rows [rowStart, rowEnd) of bm. Rows above rowStart are never read, which is
// what chunked parallel callers need. The labeled runs are recorded into rs
// (reset to rowStart first); unlike the pixel scans no label raster is
// written — the relabel pass fills the LabelMap run-by-run from rs.
//
// For each foreground run [s, e) the scan unions, via sink, with every run of
// the previous row overlapping [s-1, e+1) (8-connectivity). Runs of adjacent
// rows are both sorted, so one two-pointer sweep finds all overlaps; sink
// calls happen only per run and per overlap, never per pixel.
//
// Cancellation follows DecisionTree; on a stop rs holds only the rows
// scanned so far.
func Runs(bm *binimg.Bitmap, sink Sink, rowStart, rowEnd int, rs *RunSet, done <-chan struct{}) bool {
	rs.Reset(rowStart)
	prevLo, prevHi := 0, 0
	for y := rowStart; y < rowEnd; y++ {
		if done != nil && (y-rowStart)%poll.Rows == 0 && poll.Stopped(done) {
			return false
		}
		lo := len(rs.Runs)
		rs.Runs = bm.AppendRowRuns(rs.Runs, y)
		cur := rs.Runs[lo:]
		prev := rs.Runs[prevLo:prevHi]
		pi := 0
		for ci := range cur {
			s, e := cur[ci].Start, cur[ci].End
			// A previous-row run [ps, pe) overlaps [s-1, e+1) iff pe >= s and
			// ps <= e. Runs with pe < s are dead for every later cur run too
			// (s only grows), so pi advances monotonically.
			for pi < len(prev) && prev[pi].End < s {
				pi++
			}
			var le Label
			for j := pi; j < len(prev) && prev[j].Start <= e; j++ {
				if le == 0 {
					le = prev[j].Label
				} else if prev[j].Label != le {
					le = sink.Merge(le, prev[j].Label)
				}
			}
			if le == 0 {
				le = sink.NewLabel()
			}
			cur[ci].Label = le
		}
		prevLo, prevHi = lo, len(rs.Runs)
		rs.rowIdx = append(rs.rowIdx, len(rs.Runs))
	}
	return true
}

// MergeRuns unites every run of cur with every overlapping (8-connectivity)
// run of prev, where prev is the row immediately above cur's row. PBREMSP's
// boundary phase calls it with the concurrent merger: cur is the first row of
// a chunk, prev the last row of the chunk above.
func MergeRuns(cur, prev []Run, merge func(x, y Label)) {
	pi := 0
	for _, cr := range cur {
		for pi < len(prev) && prev[pi].End < cr.Start {
			pi++
		}
		for j := pi; j < len(prev) && prev[j].Start <= cr.End; j++ {
			merge(cr.Label, prev[j].Label)
		}
	}
}

// RunLabelStride returns the per-row provisional-label budget of the
// run-based scan: a row has at most ceil(w/2) runs and every run can be a new
// label, so a chunk starting at row r draws labels from base = r *
// RunLabelStride(w) + 1 and no two chunks overlap.
func RunLabelStride(w int) int {
	return (w + 1) / 2
}

// MaxRunLabels bounds the provisional labels the run-based scan can create
// over a w x h raster: one per run, at most ceil(w/2) runs per row.
func MaxRunLabels(w, h int) int {
	return RunLabelStride(w) * h
}
