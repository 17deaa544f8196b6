package scan_test

import (
	"testing"

	"repro/internal/binimg"
	"repro/internal/scan"
	"repro/internal/unionfind"
)

// runSink is a minimal REM-style sink over a private parent array.
type runSink struct {
	p     []scan.Label
	count scan.Label
}

func newRunSink(max int) *runSink { return &runSink{p: make([]scan.Label, max+1)} }

func (s *runSink) NewLabel() scan.Label {
	s.count++
	s.p[s.count] = s.count
	return s.count
}

func (s *runSink) Merge(x, y scan.Label) scan.Label {
	return unionfind.MergeRemSP(s.p, x, y)
}

// runsComponents labels art with the run scan and returns the component count.
func runsComponents(t *testing.T, art string) int {
	t.Helper()
	im := binimg.MustParse(art)
	bm := &binimg.Bitmap{}
	bm.FromImage(im)
	sink := newRunSink(scan.MaxRunLabels(im.Width, im.Height))
	rs := &scan.RunSet{}
	scan.Runs(bm, sink, 0, im.Height, rs, nil)
	return int(unionfind.Flatten(sink.p, 1, sink.count, 0))
}

func TestRunsComponents(t *testing.T) {
	cases := []struct {
		name string
		art  string
		want int
	}{
		{"single", `#`, 1},
		{"empty", `.`, 0},
		{"two blocks", `
			##..#
			##..#
			.....
			#.#.#`, 5},
		{"diagonal joins", `
			#.#
			.#.
			#.#`, 1},
		{"u shape", `
			#.#
			#.#
			###`, 1},
		{"stairs merge", `
			##....
			.##...
			..##..
			...##.`, 1},
		{"spiral", `
			#####
			....#
			###.#
			#...#
			#####`, 1},
		{"checkerboard", `
			#.#.#
			.#.#.
			#.#.#`, 1},
		{"separated columns", `
			#.#.#
			#.#.#
			#.#.#`, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runsComponents(t, tc.art); got != tc.want {
				t.Fatalf("got %d components, want %d", got, tc.want)
			}
		})
	}
}

// TestRunsMatchesDecisionTree checks that the run scan finds the same
// partition as the decision-tree scan on random rasters (the two-pointer
// overlap walk versus per-pixel neighbor tests).
func TestRunsMatchesDecisionTree(t *testing.T) {
	for _, w := range []int{1, 3, 63, 64, 65, 100} {
		for _, h := range []int{1, 2, 7, 32} {
			for seed := int64(0); seed < 3; seed++ {
				im := randomBits(w, h, seed)
				bm := &binimg.Bitmap{}
				bm.FromImage(im)

				rsink := newRunSink(scan.MaxRunLabels(w, h))
				rs := &scan.RunSet{}
				scan.Runs(bm, rsink, 0, h, rs, nil)
				nRuns := int(unionfind.Flatten(rsink.p, 1, rsink.count, 0))

				dsink := newRunSink(scan.MaxProvisionalLabels(w, h))
				lm := binimg.NewLabelMap(w, h)
				scan.DecisionTree(im, lm, dsink, 0, h, nil)
				nTree := int(unionfind.Flatten(dsink.p, 1, dsink.count, 0))

				if nRuns != nTree {
					t.Fatalf("%dx%d seed %d: run scan %d components, decision tree %d\n%s",
						w, h, seed, nRuns, nTree, im)
				}
			}
		}
	}
}

// randomBits builds a deterministic pseudo-random raster without math/rand
// (xorshift keeps the fixture stable across Go releases).
func randomBits(w, h int, seed int64) *binimg.Image {
	im := binimg.New(w, h)
	s := uint64(seed)*2654435761 + 1
	for i := range im.Pix {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		im.Pix[i] = uint8(s & 1)
	}
	return im
}

// TestRunSetRowRuns checks the per-row indexing of a chunked scan.
func TestRunSetRowRuns(t *testing.T) {
	im := binimg.MustParse(`
		##.##
		.....
		#####`)
	bm := &binimg.Bitmap{}
	bm.FromImage(im)
	sink := newRunSink(scan.MaxRunLabels(im.Width, im.Height))
	rs := &scan.RunSet{}
	scan.Runs(bm, sink, 1, 3, rs, nil) // chunked: skip row 0
	if rs.Row0 != 1 || rs.Rows() != 2 {
		t.Fatalf("Row0=%d Rows=%d, want 1, 2", rs.Row0, rs.Rows())
	}
	if got := rs.RowRuns(1); len(got) != 0 {
		t.Fatalf("row 1: %d runs, want 0", len(got))
	}
	got := rs.RowRuns(2)
	if len(got) != 1 || got[0].Start != 0 || got[0].End != 5 || got[0].Label == 0 {
		t.Fatalf("row 2 runs = %v, want one labeled [0,5)", got)
	}
}
