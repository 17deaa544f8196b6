package band_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/band"
	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/pnm"
	"repro/internal/stats"
)

// streamImage runs img through the full production path: P4 encode,
// pnm.BandReader ingest, band.Stream at the given band height.
func streamImage(t *testing.T, img *binimg.Image, bandRows int) *band.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := pnm.EncodePBM(&buf, img, true); err != nil {
		t.Fatal(err)
	}
	src, err := pnm.NewBandReaderBytes(buf.Bytes(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := band.Stream(src, band.Options{BandRows: bandRows})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wholeImageStats is the oracle: a flood-fill labeling of the whole image
// and a per-pixel pass over it, which shares no code with the run
// accumulator the stream folds into. A pixel whose left neighbor is
// background starts one of its component's runs.
func wholeImageStats(img *binimg.Image) []stats.Component {
	lm, n := baseline.FloodFill(img, baseline.Conn8)
	out := make([]stats.Component, n)
	sumX, sumY := make([]int64, n), make([]int64, n)
	for i := range out {
		out[i] = stats.Component{MinX: img.Width, MinY: img.Height, MaxX: -1, MaxY: -1}
	}
	for i, v := range lm.L {
		if v == 0 {
			continue
		}
		x, y := i%img.Width, i/img.Width
		c := &out[v-1]
		c.Area++
		c.MinX, c.MaxX = min(c.MinX, x), max(c.MaxX, x)
		c.MinY, c.MaxY = min(c.MinY, y), max(c.MaxY, y)
		sumX[v-1] += int64(x)
		sumY[v-1] += int64(y)
		if x == 0 || lm.L[i-1] == 0 {
			c.Runs++
		}
	}
	for i := range out {
		out[i].CentroidX = float64(sumX[i]) / float64(out[i].Area)
		out[i].CentroidY = float64(sumY[i]) / float64(out[i].Area)
	}
	return out
}

// canonical sorts component statistics into a numbering-independent order
// and zeroes the labels so two labelings can be compared field by field.
func canonical(comps []stats.Component) []stats.Component {
	out := append([]stats.Component(nil), comps...)
	for i := range out {
		out[i].Label = 0
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.MinY != b.MinY:
			return a.MinY < b.MinY
		case a.MinX != b.MinX:
			return a.MinX < b.MinX
		case a.MaxY != b.MaxY:
			return a.MaxY < b.MaxY
		case a.MaxX != b.MaxX:
			return a.MaxX < b.MaxX
		case a.Area != b.Area:
			return a.Area < b.Area
		default:
			return a.Runs < b.Runs
		}
	})
	return out
}

func checkStream(t *testing.T, name string, img *binimg.Image, bandRows int) {
	t.Helper()
	res := streamImage(t, img, bandRows)
	if res.Width != img.Width || res.Height != img.Height {
		t.Errorf("%s/band%d: result shape %dx%d, want %dx%d",
			name, bandRows, res.Width, res.Height, img.Width, img.Height)
		return
	}
	want := wholeImageStats(img)
	if res.NumComponents != len(want) {
		t.Errorf("%s/band%d: %d components, oracle found %d", name, bandRows, res.NumComponents, len(want))
		return
	}
	got := canonical(res.Components)
	wc := canonical(want)
	for i := range wc {
		if got[i] != wc[i] {
			t.Errorf("%s/band%d: component %d stats differ:\n got %+v\nwant %+v",
				name, bandRows, i, got[i], wc[i])
			return
		}
	}
	var fg int64
	for _, c := range want {
		fg += c.Area
	}
	if res.ForegroundPixels != fg {
		t.Errorf("%s/band%d: %d foreground pixels, want %d", name, bandRows, res.ForegroundPixels, fg)
	}
}

// bandHeights returns the seam-stressing band heights for an image of height
// h: every boundary position (1), the minimal non-trivial band (2), an odd
// height that misaligns with everything (7), a word-ish height (64), and the
// whole image in one band (h).
func bandHeights(h int) []int {
	return []int{1, 2, 7, 64, max(h, 1)}
}

// TestStreamMatchesWholeImageOnCorpus is the acceptance gate: on every
// harness corpus image and every band height, LabelStream's component
// statistics equal whole-image labeling plus recomputed statistics.
func TestStreamMatchesWholeImageOnCorpus(t *testing.T) {
	for _, ci := range harness.Corpus() {
		for _, rows := range bandHeights(ci.Image.Height) {
			checkStream(t, ci.Name, ci.Image, rows)
		}
	}
}

// TestStreamSeamProperty fans the seam-stitching logic across random images:
// for each, all band heights must agree with the whole-image oracle.
func TestStreamSeamProperty(t *testing.T) {
	shapes := []struct{ w, h int }{
		{97, 53}, {128, 200}, {65, 129}, {1, 77}, {200, 1}, {64, 64},
	}
	densities := []float64{0.05, 0.35, 0.5, 0.65, 0.95}
	seed := int64(1)
	for _, s := range shapes {
		for _, d := range densities {
			seed++
			img := dataset.UniformNoise(s.w, s.h, d, seed)
			name := fmt.Sprintf("noise_%dx%d_d%.2f", s.w, s.h, d)
			for _, rows := range bandHeights(s.h) {
				checkStream(t, name, img, rows)
			}
		}
	}
	// Structured images exercise long-lived components that repeatedly
	// cross seams (serpentine: one component threading every band).
	structured := []struct {
		name string
		img  *binimg.Image
	}{
		{"serpentine", dataset.Serpentine(120, 90, 2, 3)},
		{"rings", dataset.ConcentricRings(121, 95, 2, 2)},
		{"checker", dataset.Checkerboard(90, 90, 1)},
	}
	for _, s := range structured {
		for _, rows := range bandHeights(s.img.Height) {
			checkStream(t, s.name, s.img, rows)
		}
	}
}

// TestStreamP5 checks the grayscale band path: a raw PGM is binarized at
// the streamed level exactly as the whole-image decoder binarizes it.
func TestStreamP5(t *testing.T) {
	const w, h = 50, 40
	gray := make([]uint8, w*h)
	for i := range gray {
		gray[i] = uint8((i * 7) % 256)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P5\n%d %d\n255\n", w, h)
	buf.Write(gray)

	src, err := pnm.NewBandReaderBytes(buf.Bytes(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := band.Stream(src, band.Options{BandRows: 9})
	if err != nil {
		t.Fatal(err)
	}
	img, err := binimg.FromGray(w, h, gray, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := wholeImageStats(img)
	if res.NumComponents != len(want) {
		t.Fatalf("%d components, want %d", res.NumComponents, len(want))
	}
	got, wc := canonical(res.Components), canonical(want)
	for i := range wc {
		if got[i] != wc[i] {
			t.Fatalf("component %d stats differ:\n got %+v\nwant %+v", i, got[i], wc[i])
		}
	}
}

// TestStreamTruncatedInput confirms a short body fails cleanly rather than
// producing partial statistics.
func TestStreamTruncatedInput(t *testing.T) {
	img := dataset.UniformNoise(40, 40, 0.5, 3)
	var buf bytes.Buffer
	if err := pnm.EncodePBM(&buf, img, true); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-25]
	src, err := pnm.NewBandReaderBytes(data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := band.Stream(src, band.Options{BandRows: 8}); err == nil {
		t.Fatal("truncated stream labeled without error")
	}
}
