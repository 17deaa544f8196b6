package paremsp_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	paremsp "repro"
)

// The tests in this file pin label numbering, not just partitions: the same
// input must produce the same label map, byte for byte, whatever the thread
// count, merger or scan strategy that computed it.

// numberingImage is a seeded binary raster with the given foreground density.
func numberingImage(w, h int, density float64, seed int64) *paremsp.Image {
	rng := rand.New(rand.NewSource(seed))
	img := paremsp.NewImage(w, h)
	for i := range img.Pix {
		if rng.Float64() < density {
			img.Pix[i] = 1
		}
	}
	return img
}

// numberingSizes mixes odd widths, 1-pixel sides and seam-heavy heights.
var numberingSizes = [][2]int{{1, 1}, {1, 37}, {37, 1}, {31, 29}, {63, 65}, {129, 40}, {8, 131}}

var numberingDensities = []float64{0.05, 0.5, 0.95}

// labelBytes runs one binary labeling and fails the test on error.
func labelBytes(t *testing.T, img *paremsp.Image, opt paremsp.Options) ([]paremsp.LabelID, int) {
	t.Helper()
	res, err := paremsp.LabelIntoCtx(context.Background(), img, nil, nil, opt)
	if err != nil {
		t.Fatalf("%+v: %v", opt, err)
	}
	return res.Labels.L, res.NumComponents
}

// sameLabels fails unless two labelings are identical, byte for byte.
func sameLabels(t *testing.T, what string, a []paremsp.LabelID, na int, b []paremsp.LabelID, nb int) {
	t.Helper()
	if na != nb {
		t.Fatalf("%s: %d components, want %d", what, nb, na)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("%s: label[%d] = %d, want %d", what, k, b[k], a[k])
		}
	}
}

func TestBinaryNumberingStable(t *testing.T) {
	threads := []int{1, 2, 3, 7}
	for si, size := range numberingSizes {
		for di, d := range numberingDensities {
			img := numberingImage(size[0], size[1], d, int64(100*si+di))
			name := fmt.Sprintf("%dx%d/d%.2f", size[0], size[1], d)
			t.Run(name, func(t *testing.T) {
				// Pair-row family: AREMSP and PAREMSP at every thread count
				// and merger.
				pair, npair := labelBytes(t, img, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
				// Decision-tree and run family: CCLREMSP, BREMSP, PBREMSP
				// over an image and over a bitmap.
				tree, ntree := labelBytes(t, img, paremsp.Options{Algorithm: paremsp.AlgCCLREMSP})
				runs, nruns := labelBytes(t, img, paremsp.Options{Algorithm: paremsp.AlgBREMSP})
				sameLabels(t, "bremsp vs cclremsp", tree, ntree, runs, nruns)
				bm := paremsp.NewBitmap(img.Width, img.Height)
				bm.FromImage(img)
				for _, th := range threads {
					for _, cas := range []bool{false, true} {
						what := fmt.Sprintf("threads=%d cas=%v", th, cas)
						l, n := labelBytes(t, img, paremsp.Options{Algorithm: paremsp.AlgPAREMSP, Threads: th, UseCASMerger: cas})
						sameLabels(t, "paremsp "+what, pair, npair, l, n)
						l, n = labelBytes(t, img, paremsp.Options{Algorithm: paremsp.AlgPBREMSP, Threads: th, UseCASMerger: cas})
						sameLabels(t, "pbremsp "+what, tree, ntree, l, n)
						res, err := paremsp.LabelBitmapIntoCtx(context.Background(), bm, nil, nil,
							paremsp.Options{Algorithm: paremsp.AlgPBREMSP, Threads: th, UseCASMerger: cas})
						if err != nil {
							t.Fatal(err)
						}
						sameLabels(t, "pbremsp bitmap "+what, tree, ntree, res.Labels.L, res.NumComponents)
					}
				}
				res, err := paremsp.LabelBitmapIntoCtx(context.Background(), bm, nil, nil, paremsp.Options{Algorithm: paremsp.AlgBREMSP})
				if err != nil {
					t.Fatal(err)
				}
				sameLabels(t, "bremsp bitmap", tree, ntree, res.Labels.L, res.NumComponents)
			})
		}
	}
}

// numberingGray is a seeded gray raster with the given number of levels.
func numberingGray(w, h, levels int, seed int64) *paremsp.GrayImage {
	rng := rand.New(rand.NewSource(seed))
	img := paremsp.NewGrayImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(levels) * 40)
	}
	return img
}

// numberingVolume is a seeded binary volume with the given density.
func numberingVolume(w, h, d int, density float64, seed int64) *paremsp.Volume {
	rng := rand.New(rand.NewSource(seed))
	vol := paremsp.NewVolume(w, h, d)
	for i := range vol.Vox {
		if rng.Float64() < density {
			vol.Vox[i] = 1
		}
	}
	return vol
}

func TestGrayAndVolumeNumberingStable(t *testing.T) {
	ctx := context.Background()
	for si, size := range numberingSizes {
		for _, levels := range []int{2, 3, 8} {
			img := numberingGray(size[0], size[1], levels, int64(200+10*si+levels))
			seq, err := paremsp.LabelGrayIntoCtx(ctx, img, nil, nil, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []int{1, 2, 3, 7} {
				par, err := paremsp.LabelGrayIntoCtx(ctx, img, nil, nil, paremsp.Options{Algorithm: paremsp.AlgPAREMSP, Threads: th})
				if err != nil {
					t.Fatal(err)
				}
				sameLabels(t, fmt.Sprintf("gray %dx%d levels=%d threads=%d", size[0], size[1], levels, th),
					seq.Labels.L, seq.NumComponents, par.Labels.L, par.NumComponents)
			}
		}
	}
	for vi, dims := range [][3]int{{1, 1, 1}, {1, 17, 2}, {5, 7, 9}, {9, 4, 13}, {6, 6, 1}} {
		for di, d := range numberingDensities {
			vol := numberingVolume(dims[0], dims[1], dims[2], d, int64(300+10*vi+di))
			seq, err := paremsp.LabelVolumeIntoCtx(ctx, vol, nil, nil, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []int{1, 2, 3, 7} {
				par, err := paremsp.LabelVolumeIntoCtx(ctx, vol, nil, nil, paremsp.Options{Algorithm: paremsp.AlgPAREMSP, Threads: th})
				if err != nil {
					t.Fatal(err)
				}
				sameLabels(t, fmt.Sprintf("volume %v d=%.2f threads=%d", dims, d, th),
					seq.Labels.L, seq.NumComponents, par.Labels.L, par.NumComponents)
			}
		}
	}
}

// labelDigest is the SHA-256 of a labeling: component count, then every
// label as a little-endian uint32.
func labelDigest(l []paremsp.LabelID, n int) string {
	h := sha256.New()
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint32(buf, uint32(n))
	h.Write(buf)
	for _, v := range l {
		binary.LittleEndian.PutUint32(buf, uint32(v))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNumberingDigests pins one labeling per entry point to a recorded
// digest, so a change that renumbers every labeling the same way — which
// the cross-algorithm comparisons above cannot see — still fails.
func TestNumberingDigests(t *testing.T) {
	ctx := context.Background()
	img := numberingImage(97, 61, 0.5, 7)
	bm := paremsp.NewBitmap(img.Width, img.Height)
	bm.FromImage(img)
	gray := numberingGray(53, 47, 3, 8)
	vol := numberingVolume(11, 9, 15, 0.3, 9)

	got := map[string]string{}
	for _, alg := range []paremsp.Algorithm{paremsp.AlgPAREMSP, paremsp.AlgAREMSP, paremsp.AlgCCLREMSP, paremsp.AlgBREMSP, paremsp.AlgPBREMSP} {
		l, n := labelBytes(t, img, paremsp.Options{Algorithm: alg, Threads: 3})
		got[string(alg)] = labelDigest(l, n)
	}
	res, err := paremsp.LabelBitmapIntoCtx(ctx, bm, nil, nil, paremsp.Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	got["bitmap"] = labelDigest(res.Labels.L, res.NumComponents)
	res, err = paremsp.LabelGrayIntoCtx(ctx, gray, nil, nil, paremsp.Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	got["gray"] = labelDigest(res.Labels.L, res.NumComponents)
	res, err = paremsp.LabelGrayIntoCtx(ctx, gray, nil, nil, paremsp.Options{Mode: paremsp.ModeGrayDelta, Delta: 40})
	if err != nil {
		t.Fatal(err)
	}
	got["gray-delta"] = labelDigest(res.Labels.L, res.NumComponents)
	vres, err := paremsp.LabelVolumeIntoCtx(ctx, vol, nil, nil, paremsp.Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	got["volume"] = labelDigest(vres.Labels.L, vres.NumComponents)

	// Recorded before the labelers shared core.Kernel.Run. The pair-row family
	// (AREMSP, PAREMSP) numbers components differently from the
	// decision-tree and run family, which agree with each other.
	const pairRows = "f4b8302c06760e3469c4b27b40e69c05fb70441f0adf34adeabe3363ac6713a2"
	const treeRuns = "6bd168b0f5f21d7df9fe9ffe59d43d4feb45a06e01891f5acbccbbcd7dca3e7d"
	want := map[string]string{
		"paremsp":    pairRows,
		"aremsp":     pairRows,
		"cclremsp":   treeRuns,
		"bremsp":     treeRuns,
		"pbremsp":    treeRuns,
		"bitmap":     treeRuns,
		"gray":       "dc22efb72f586c360769f495dcab0484a59daf9609a81334280259b6aa8a078d",
		"gray-delta": "1092048ee397393b3fc1964d9f9230952b2d6234a8289ee0d708629ef55a456f",
		"volume":     "8b4c89cf75c9cc9b4978a6f59092f4838f6977069a57c047d3b09b7841e4a0d5",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: digest %s, want %s", k, got[k], v)
		}
	}
}
