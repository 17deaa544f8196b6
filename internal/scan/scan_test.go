package scan_test

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/unionfind"
)

// plain drops the done channel of a cancelable scan, giving it the shape of
// the uncancelable ones.
func plain(f func(*binimg.Image, *binimg.LabelMap, scan.Sink, int, int, <-chan struct{}) bool) func(*binimg.Image, *binimg.LabelMap, scan.Sink, int, int) {
	return func(img *binimg.Image, lm *binimg.LabelMap, sink scan.Sink, lo, hi int) {
		f(img, lm, sink, lo, hi, nil)
	}
}

// runScan executes one scan strategy with a REM sink and returns the final
// consecutive labeling.
func runScan(t *testing.T, img *binimg.Image,
	f func(*binimg.Image, *binimg.LabelMap, scan.Sink, int, int), cap int) (*binimg.LabelMap, int) {
	t.Helper()
	lm := binimg.NewLabelMap(img.Width, img.Height)
	sink := core.NewRemSink(cap)
	f(img, lm, sink, 0, img.Height)
	n := unionfind.Flatten(sink.Parents(), 1, sink.Count(), 0)
	for i, v := range lm.L {
		if v != 0 {
			lm.L[i] = sink.Parents()[v]
		}
	}
	return lm, int(n)
}

// enumerate builds a small image whose pixels are the low bits of mask in
// raster order.
func enumerate(w, h int, mask uint32) *binimg.Image {
	im := binimg.New(w, h)
	for i := range im.Pix {
		im.Pix[i] = uint8((mask >> i) & 1)
	}
	return im
}

// TestDecisionTreeExhaustiveMask verifies the decision-tree scan against
// flood fill on every 3x2 pixel configuration — this covers all 16 neighbor
// configurations (a,b,c,d) of a foreground e plus every background-e case.
func TestDecisionTreeExhaustiveMask(t *testing.T) {
	for mask := uint32(0); mask < 1<<6; mask++ {
		img := enumerate(3, 2, mask)
		lm, n := runScan(t, img, plain(scan.DecisionTree), scan.MaxProvisionalLabels(3, 2))
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n != nRef {
			t.Fatalf("mask %06b: n = %d, want %d\nimage:\n%s\ngot:\n%s\nwant:\n%s",
				mask, n, nRef, img, lm, ref)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("mask %06b: %v\nimage:\n%s", mask, err, img)
		}
	}
}

// TestDecisionTreeExhaustive4x3 widens the exhaustive window so decisions
// interact across columns and rows (4096 images).
func TestDecisionTreeExhaustive4x3(t *testing.T) {
	for mask := uint32(0); mask < 1<<12; mask++ {
		img := enumerate(4, 3, mask)
		lm, n := runScan(t, img, plain(scan.DecisionTree), scan.MaxProvisionalLabels(4, 3))
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n != nRef {
			t.Fatalf("mask %012b: n = %d, want %d\nimage:\n%s", mask, n, nRef, img)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("mask %012b: %v\nimage:\n%s", mask, err, img)
		}
	}
}

// TestPairRowsExhaustiveMask verifies the two-rows-at-a-time scan against
// flood fill on every 3x3 configuration (512 images), covering the full
// Fig. 1b mask (a,b,c / d,e / f,g) including both e-foreground and
// e-background branches of Alg. 6.
func TestPairRowsExhaustiveMask(t *testing.T) {
	for mask := uint32(0); mask < 1<<9; mask++ {
		img := enumerate(3, 3, mask)
		lm, n := runScan(t, img, plain(scan.PairRows), scan.MaxProvisionalLabels(3, 3))
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n != nRef {
			t.Fatalf("mask %09b: n = %d, want %d\nimage:\n%s\ngot:\n%s\nwant:\n%s",
				mask, n, nRef, img, lm, ref)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("mask %09b: %v\nimage:\n%s", mask, err, img)
		}
	}
}

// TestPairRowsExhaustive4x4 exercises pair interactions across two row pairs
// and odd columns (65536 images).
func TestPairRowsExhaustive4x4(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 4x4 sweep skipped in -short mode")
	}
	for mask := uint32(0); mask < 1<<16; mask++ {
		img := enumerate(4, 4, mask)
		lm, n := runScan(t, img, plain(scan.PairRows), scan.MaxProvisionalLabels(4, 4))
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n != nRef {
			t.Fatalf("mask %016b: n = %d, want %d\nimage:\n%s", mask, n, nRef, img)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("mask %016b: %v\nimage:\n%s", mask, err, img)
		}
	}
}

// TestPairRowsOddHeight checks the final unpaired row handling on exhaustive
// 3-wide, 5-tall images (odd row count means the last row scans alone).
func TestPairRowsOddHeight(t *testing.T) {
	for trial := 0; trial < 2000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		img := binimg.New(3, 5)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(2))
		}
		lm, n := runScan(t, img, plain(scan.PairRows), scan.MaxProvisionalLabels(3, 5))
		ref, nRef := baseline.FloodFill(img, baseline.Conn8)
		if n != nRef {
			t.Fatalf("trial %d: n = %d, want %d\nimage:\n%s", trial, n, nRef, img)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatalf("trial %d: %v\nimage:\n%s", trial, err, img)
		}
	}
}

// TestAllNeighborsScansMatchFloodFill covers the classic scans.
func TestAllNeighborsScansMatchFloodFill(t *testing.T) {
	for trial := 0; trial < 500; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		w, h := 1+rng.Intn(12), 1+rng.Intn(12)
		img := binimg.New(w, h)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(2))
		}
		lm8, n8 := runScan(t, img, scan.AllNeighbors8, scan.MaxProvisionalLabels(w, h))
		ref8, nRef8 := baseline.FloodFill(img, baseline.Conn8)
		if n8 != nRef8 {
			t.Fatalf("trial %d (8-conn): n = %d, want %d\nimage:\n%s", trial, n8, nRef8, img)
		}
		if err := stats.Equivalent(lm8, ref8); err != nil {
			t.Fatalf("trial %d (8-conn): %v", trial, err)
		}
		lm4, n4 := runScan(t, img, scan.AllNeighbors4, scan.MaxProvisionalLabels4(w, h))
		ref4, nRef4 := baseline.FloodFill(img, baseline.Conn4)
		if n4 != nRef4 {
			t.Fatalf("trial %d (4-conn): n = %d, want %d\nimage:\n%s", trial, n4, nRef4, img)
		}
		if err := stats.Equivalent(lm4, ref4); err != nil {
			t.Fatalf("trial %d (4-conn): %v", trial, err)
		}
	}
}

// TestScanRangeIgnoresRowsAbove: scanning rows [2, h) must behave as if row 2
// were the top of the image — the contract PAREMSP's chunking relies on.
func TestScanRangeIgnoresRowsAbove(t *testing.T) {
	full := binimg.MustParse(`
		#####
		#####
		..#..
		.###.`)
	sub := binimg.MustParse(`
		..#..
		.###.`)
	for _, tc := range []struct {
		name string
		f    func(*binimg.Image, *binimg.LabelMap, scan.Sink, int, int)
	}{
		{"DecisionTree", plain(scan.DecisionTree)},
		{"PairRows", plain(scan.PairRows)},
		{"AllNeighbors8", scan.AllNeighbors8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lmFull := binimg.NewLabelMap(5, 4)
			sink := core.NewRemSink(scan.MaxProvisionalLabels(5, 4))
			tc.f(full, lmFull, sink, 2, 4)
			// Rows 0-1 untouched.
			for i := 0; i < 10; i++ {
				if lmFull.L[i] != 0 {
					t.Fatalf("row above range was written: %v", lmFull.L[:10])
				}
			}
			// Rows 2-3 labeled exactly like a standalone scan of sub.
			lmSub := binimg.NewLabelMap(5, 2)
			sink2 := core.NewRemSink(scan.MaxProvisionalLabels(5, 2))
			tc.f(sub, lmSub, sink2, 0, 2)
			for i := 0; i < 10; i++ {
				if (lmFull.L[10+i] == 0) != (lmSub.L[i] == 0) {
					t.Fatalf("chunked scan differs from standalone at %d", i)
				}
			}
		})
	}
}

// TestMaxProvisionalLabelsBound empirically validates the label-count bound
// on the adversarial patterns (isolated-pixel grid for 8-conn scans,
// checkerboard for the 4-conn scan).
func TestMaxProvisionalLabelsBound(t *testing.T) {
	// Isolated pixels at even coordinates: the 8-conn worst case.
	img := binimg.New(21, 17)
	for y := 0; y < 17; y += 2 {
		for x := 0; x < 21; x += 2 {
			img.Set(x, y, 1)
		}
	}
	want := 11 * 9
	if got := scan.MaxProvisionalLabels(21, 17); got != want {
		t.Fatalf("MaxProvisionalLabels(21,17) = %d, want %d", got, want)
	}
	for _, f := range []func(*binimg.Image, *binimg.LabelMap, scan.Sink, int, int){
		plain(scan.DecisionTree), plain(scan.PairRows), scan.AllNeighbors8,
	} {
		lm := binimg.NewLabelMap(21, 17)
		sink := core.NewRemSink(want)
		f(img, lm, sink, 0, 17) // would panic on overflow of the parent array
		if int(sink.Count()) != want {
			t.Fatalf("isolated grid created %d labels, want %d", sink.Count(), want)
		}
	}
	// Checkerboard: the 4-conn worst case exceeds the 8-conn bound.
	cb := binimg.New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if (x+y)%2 == 0 {
				cb.Set(x, y, 1)
			}
		}
	}
	lm := binimg.NewLabelMap(8, 8)
	sink := core.NewRemSink(scan.MaxProvisionalLabels4(8, 8))
	scan.AllNeighbors4(cb, lm, sink, 0, 8)
	if int(sink.Count()) != 32 {
		t.Fatalf("checkerboard 4-conn created %d labels, want 32", sink.Count())
	}
}

// TestRowPairLabelStride pins the stride used for disjoint chunk ranges.
func TestRowPairLabelStride(t *testing.T) {
	for _, tc := range []struct{ w, want int }{{1, 1}, {2, 1}, {3, 2}, {8, 4}, {9, 5}} {
		if got := scan.RowPairLabelStride(tc.w); got != tc.want {
			t.Errorf("RowPairLabelStride(%d) = %d, want %d", tc.w, got, tc.want)
		}
	}
}

// TestScansOnEmptyAndFull covers degenerate inputs.
func TestScansOnEmptyAndFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func(*binimg.Image, *binimg.LabelMap, scan.Sink, int, int)
	}{
		{"DecisionTree", plain(scan.DecisionTree)},
		{"PairRows", plain(scan.PairRows)},
		{"AllNeighbors8", scan.AllNeighbors8},
		{"AllNeighbors4", scan.AllNeighbors4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			empty := binimg.New(7, 5)
			lm, n := runScan(t, empty, tc.f, scan.MaxProvisionalLabels4(7, 5))
			if n != 0 || lm.Max() != 0 {
				t.Fatalf("empty image: n = %d, max = %d", n, lm.Max())
			}
			full := binimg.New(7, 5)
			full.Fill(1)
			lm, n = runScan(t, full, tc.f, scan.MaxProvisionalLabels4(7, 5))
			if n != 1 {
				t.Fatalf("full image: n = %d, want 1", n)
			}
			for _, v := range lm.L {
				if v != 1 {
					t.Fatalf("full image not uniformly labeled 1:\n%s", lm)
				}
			}
		})
	}
}
