// Package scan implements the first-pass ("scanning step") strategies that
// the paper's two-pass CCL algorithms are assembled from:
//
//   - DecisionTree: the Wu-Otoo-Suzuki decision tree (paper Fig. 2) over the
//     forward scan mask of Fig. 1a — used by CCLLRPC and CCLREMSP.
//   - PairRows: the He-Chao-Suzuki two-rows-at-a-time scan (paper Alg. 6)
//     over the mask of Fig. 1b — used by ARUN, AREMSP and PAREMSP.
//   - AllNeighbors8 / AllNeighbors4: the classic Rosenfeld scan that examines
//     every already-visited neighbor — the scan-strategy ablation baseline.
//
// Every scan is parameterized by a Sink that owns provisional-label creation
// and label-equivalence recording; pairing one scan with different sinks is
// exactly how the paper composes its algorithms (scan strategy x union-find).
// Sink calls happen only on new-label and merge events, which are rare
// relative to pixel visits, so the interface indirection does not distort the
// scan-vs-scan comparisons.
package scan

import (
	"repro/internal/binimg"
	"repro/internal/poll"
)

// Label aliases the repository-wide label type.
type Label = binimg.Label

// Sink records provisional labels and their equivalences during a scan.
type Sink interface {
	// NewLabel creates and returns a fresh provisional label (>= 1).
	NewLabel() Label
	// Merge records that x and y label the same component and returns a
	// label of the united set.
	Merge(x, y Label) Label
}

// DecisionTree runs the Wu-Otoo-Suzuki decision-tree scan over rows
// [rowStart, rowEnd) of img, writing provisional labels into lm. Rows above
// rowStart are never read (rowStart behaves like the top of the image), which
// is what chunked parallel callers need.
//
// Mask (Fig. 1a): a, b, c are the row-above neighbors at x-1, x, x+1; d is
// the left neighbor. The tree order is: b; else c (merging with a or d);
// else a; else d; else new label. Two-argument copies are the only merge
// sites — the tree guarantees all other configurations are already
// equivalent.
//
// Every poll.Rows rows the scan polls done and, if the channel is closed,
// abandons the scan and reports false. A nil done never cancels. Labels
// written before the stop remain in lm but the scan is incomplete — callers
// must discard the labeling.
func DecisionTree(img *binimg.Image, lm *binimg.LabelMap, sink Sink, rowStart, rowEnd int, done <-chan struct{}) bool {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	for y := rowStart; y < rowEnd; y++ {
		if done != nil && (y-rowStart)%poll.Rows == 0 && poll.Stopped(done) {
			return false
		}
		row := y * w
		up := row - w
		hasUp := y > rowStart
		for x := 0; x < w; x++ {
			if pix[row+x] == 0 {
				continue
			}
			var a, b, c, d uint8
			if hasUp {
				b = pix[up+x]
				if x > 0 {
					a = pix[up+x-1]
				}
				if x+1 < w {
					c = pix[up+x+1]
				}
			}
			if x > 0 {
				d = pix[row+x-1]
			}
			var le Label
			switch {
			case b != 0:
				le = lab[up+x]
			case c != 0:
				switch {
				case a != 0:
					le = sink.Merge(lab[up+x+1], lab[up+x-1])
				case d != 0:
					le = sink.Merge(lab[up+x+1], lab[row+x-1])
				default:
					le = lab[up+x+1]
				}
			case a != 0:
				le = lab[up+x-1]
			case d != 0:
				le = lab[row+x-1]
			default:
				le = sink.NewLabel()
			}
			lab[row+x] = le
		}
	}
	return true
}

// PairRows runs the He-Chao-Suzuki two-rows-at-a-time scan (paper Alg. 6,
// mask Fig. 1b) over rows [rowStart, rowEnd) of img, writing provisional
// labels into lm. Rows above rowStart are never read. When the range has an
// odd number of rows the final row is processed alone (no g row).
//
// For each column x the scan labels e = (x, r) and g = (x, r+1) together.
// Mask: a, b, c = row r-1 at x-1, x, x+1; d = (x-1, r); f = (x-1, r+1).
//
// Two pseudo-code typos in the paper's Alg. 6 are corrected here: line 14
// merges label(e) with label(a), and the new-label assignment in the e==0
// branch goes to g. The trailing "if image(g): label(g) = label(e)" applies
// to every e==1 case.
//
// Cancellation follows DecisionTree, polling done every poll.Rows row pairs.
func PairRows(img *binimg.Image, lm *binimg.LabelMap, sink Sink, rowStart, rowEnd int, done <-chan struct{}) bool {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	for r := rowStart; r < rowEnd; r += 2 {
		if done != nil && (r-rowStart)%(2*poll.Rows) == 0 && poll.Stopped(done) {
			return false
		}
		row := r * w
		up := row - w
		down := row + w
		hasUp := r > rowStart
		hasG := r+1 < rowEnd
		for x := 0; x < w; x++ {
			e := pix[row+x]
			var g uint8
			if hasG {
				g = pix[down+x]
			}
			if e != 0 {
				var a, b, c, d, f uint8
				if hasUp {
					b = pix[up+x]
					if x > 0 {
						a = pix[up+x-1]
					}
					if x+1 < w {
						c = pix[up+x+1]
					}
				}
				if x > 0 {
					d = pix[row+x-1]
					if hasG {
						f = pix[down+x-1]
					}
				}
				var le Label
				if d == 0 {
					switch {
					case b != 0:
						le = lab[up+x]
						if f != 0 {
							le = sink.Merge(le, lab[down+x-1])
						}
					case f != 0:
						le = lab[down+x-1]
						if a != 0 {
							le = sink.Merge(le, lab[up+x-1])
						}
						if c != 0 {
							le = sink.Merge(le, lab[up+x+1])
						}
					case a != 0:
						le = lab[up+x-1]
						if c != 0 {
							le = sink.Merge(le, lab[up+x+1])
						}
					case c != 0:
						le = lab[up+x+1]
					default:
						le = sink.NewLabel()
					}
				} else {
					le = lab[row+x-1]
					if b == 0 && c != 0 {
						le = sink.Merge(le, lab[up+x+1])
					}
				}
				lab[row+x] = le
				if g != 0 {
					lab[down+x] = le
				}
			} else if g != 0 {
				var lg Label
				switch {
				case x > 0 && pix[row+x-1] != 0: // d
					lg = lab[row+x-1]
				case x > 0 && pix[down+x-1] != 0: // f
					lg = lab[down+x-1]
				default:
					lg = sink.NewLabel()
				}
				lab[down+x] = lg
			}
		}
	}
	return true
}

// AllNeighbors8 is the classic Rosenfeld 8-connected forward scan: every
// already-visited neighbor (d, a, b, c) of a foreground pixel is examined and
// all distinct labels among them are merged. Paired with the same sink as
// DecisionTree it isolates the decision tree's benefit (scan ablation).
func AllNeighbors8(img *binimg.Image, lm *binimg.LabelMap, sink Sink, rowStart, rowEnd int) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	for y := rowStart; y < rowEnd; y++ {
		row := y * w
		up := row - w
		hasUp := y > rowStart
		for x := 0; x < w; x++ {
			if pix[row+x] == 0 {
				continue
			}
			var le Label
			take := func(idx int) {
				if pix[idx] == 0 {
					return
				}
				if le == 0 {
					le = lab[idx]
				} else if lab[idx] != le {
					le = sink.Merge(le, lab[idx])
				}
			}
			if x > 0 {
				take(row + x - 1)
			}
			if hasUp {
				if x > 0 {
					take(up + x - 1)
				}
				take(up + x)
				if x+1 < w {
					take(up + x + 1)
				}
			}
			if le == 0 {
				le = sink.NewLabel()
			}
			lab[row+x] = le
		}
	}
}

// AllNeighbors4 is the 4-connected variant of AllNeighbors8: only the left
// and top neighbors are examined. The paper's algorithms are 8-connected
// only; this scan exists so the library covers both standard
// connectivities.
func AllNeighbors4(img *binimg.Image, lm *binimg.LabelMap, sink Sink, rowStart, rowEnd int) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	for y := rowStart; y < rowEnd; y++ {
		row := y * w
		up := row - w
		hasUp := y > rowStart
		for x := 0; x < w; x++ {
			if pix[row+x] == 0 {
				continue
			}
			var le Label
			if x > 0 && pix[row+x-1] != 0 {
				le = lab[row+x-1]
			}
			if hasUp && pix[up+x] != 0 {
				if le == 0 {
					le = lab[up+x]
				} else if lab[up+x] != le {
					le = sink.Merge(le, lab[up+x])
				}
			}
			if le == 0 {
				le = sink.NewLabel()
			}
			lab[row+x] = le
		}
	}
}

// MaxProvisionalLabels returns a safe upper bound on the number of
// provisional labels the 8-connected scans (DecisionTree, PairRows,
// AllNeighbors8) can create over a w x h raster. A pixel receives a new
// label only when all of its already-visited neighbors are background, so
// new-label pixels form an independent set in the 8-connectivity
// (king-graph) sense, of which there are at most ceil(w/2) * ceil(h/2).
func MaxProvisionalLabels(w, h int) int {
	return ((w + 1) / 2) * ((h + 1) / 2)
}

// MaxProvisionalLabels4 is the bound for the 4-connected scan
// (AllNeighbors4): no two new-label pixels can be horizontally adjacent, but
// a checkerboard makes every foreground pixel a new label vertically, so the
// bound is ceil(w/2) per row.
func MaxProvisionalLabels4(w, h int) int {
	return ((w + 1) / 2) * h
}

// RowPairLabelStride returns the per-row-pair provisional-label budget used
// by the parallel algorithm to keep chunk label ranges disjoint: a chunk
// starting at row r draws labels from base = (r/2)*RowPairLabelStride(w) + 1.
func RowPairLabelStride(w int) int {
	return (w + 1) / 2
}
