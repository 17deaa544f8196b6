package core

import (
	"testing"

	"repro/internal/binimg"
	"repro/internal/poll"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/unionfind"
)

// TestFoldRunsPolls: the component fold polls its done channel like the
// scan and relabel loops, so a labeling canceled after FLATTEN stops in
// the fold instead of finishing it.
func TestFoldRunsPolls(t *testing.T) {
	w, h := 9, 3*poll.Rows
	bm := binimg.NewBitmap(w, h)
	for y := 0; y < h; y++ {
		bm.Set(y%w, y, 1)
	}
	sink := NewRemSink(scan.MaxRunLabels(w, h))
	rs := &scan.RunSet{}
	scan.Runs(bm, sink, 0, h, rs, nil)
	p := sink.Parents()
	accs := make([]stats.Acc, unionfind.Flatten(p, 1, sink.Count(), 0))
	stopped := make(chan struct{})
	close(stopped)
	if foldRuns(accs, p, []*scan.RunSet{rs}, stopped) {
		t.Fatal("the fold ran to completion past a closed done channel")
	}
	if !foldRuns(accs, p, []*scan.RunSet{rs}, nil) {
		t.Fatal("the fold stopped without a done channel")
	}
}
