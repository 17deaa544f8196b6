package baseline

import (
	"repro/internal/binimg"
	"repro/internal/scan"
)

// CCLLRPC is the Wu-Otoo-Suzuki two-pass algorithm as characterized by the
// paper: decision-tree scan (Fig. 2) + array union-find with link-by-rank and
// path compression. Returns the final label map and the component count.
func CCLLRPC(img *binimg.Image) (*binimg.LabelMap, int) {
	lm := binimg.NewLabelMap(img.Width, img.Height)
	sink := NewRankPCSink(scan.MaxProvisionalLabels(img.Width, img.Height))
	scan.DecisionTree(img, lm, sink, 0, img.Height, nil)
	n := sink.Flatten()
	relabel(lm, sink.Lookup)
	return lm, int(n)
}

// ARUN is the He-Chao-Suzuki 2012 two-scan algorithm as characterized by the
// paper: two-rows-at-a-time scan (Alg. 6's strategy) + the rtable/next/tail
// equivalence structure.
func ARUN(img *binimg.Image) (*binimg.LabelMap, int) {
	lm := binimg.NewLabelMap(img.Width, img.Height)
	sink := NewHeSink(scan.MaxProvisionalLabels(img.Width, img.Height))
	scan.PairRows(img, lm, sink, 0, img.Height, nil)
	n := sink.Flatten()
	relabel(lm, sink.Lookup)
	return lm, int(n)
}

// Classic8 is the Rosenfeld two-pass scan (all four visited neighbors
// examined, no decision tree) paired with the rank+PC union-find. It is the
// scan-strategy ablation baseline: CCLLRPC minus the decision tree.
func Classic8(img *binimg.Image) (*binimg.LabelMap, int) {
	lm := binimg.NewLabelMap(img.Width, img.Height)
	sink := NewRankPCSink(scan.MaxProvisionalLabels(img.Width, img.Height))
	scan.AllNeighbors8(img, lm, sink, 0, img.Height)
	n := sink.Flatten()
	relabel(lm, sink.Lookup)
	return lm, int(n)
}

// Classic4 is the 4-connected classic two-pass algorithm.
func Classic4(img *binimg.Image) (*binimg.LabelMap, int) {
	lm := binimg.NewLabelMap(img.Width, img.Height)
	sink := NewRankPCSink(scan.MaxProvisionalLabels4(img.Width, img.Height))
	scan.AllNeighbors4(img, lm, sink, 0, img.Height)
	n := sink.Flatten()
	relabel(lm, sink.Lookup)
	return lm, int(n)
}

// relabel rewrites every provisional label through lookup; background (0)
// stays 0.
func relabel(lm *binimg.LabelMap, lookup func(Label) Label) {
	for i, v := range lm.L {
		if v != 0 {
			lm.L[i] = lookup(v)
		}
	}
}
