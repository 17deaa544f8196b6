package band_test

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/band"
	"repro/internal/pnm"
	"repro/internal/scan"
	"repro/internal/stats"
)

// stripeP4 generates a synthetic raw-PBM stream on the fly — header first,
// then height copies of one repeating row — so the test never materializes
// the input (a 16384^2 image is 32 MiB packed, 256 MiB as a byte raster).
// The pattern is vertical stripes with one foreground column every eight
// pixels: every component spans the full image height and therefore crosses
// every band seam.
type stripeP4 struct {
	header []byte
	row    []byte
	hdrOff int
	rowOff int
	rows   int // rows not yet fully emitted
}

func newStripeP4(w, h int) *stripeP4 {
	row := make([]byte, (w+7)/8)
	for i := range row {
		row[i] = 0x80 // P4 is MSB-first: bit 0x80 is pixel x%8 == 0
	}
	return &stripeP4{
		header: []byte("P4\n" + itoa(w) + " " + itoa(h) + "\n"),
		row:    row,
		rows:   h,
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func (s *stripeP4) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if s.hdrOff < len(s.header) {
			c := copy(p[n:], s.header[s.hdrOff:])
			s.hdrOff += c
			n += c
			continue
		}
		if s.rows == 0 {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		c := copy(p[n:], s.row[s.rowOff:])
		s.rowOff += c
		n += c
		if s.rowOff == len(s.row) {
			s.rowOff = 0
			s.rows--
		}
	}
	return n, nil
}

// TestStreamFixedMemory16k is the acceptance test for the streaming memory
// model: labeling a synthetic 16384x16384 P4 input (268M pixels; the byte
// raster alone would be 256 MiB, the label map 1 GiB) must allocate less
// than 3x the working set of ONE band — bitmap, run set, and band-local
// equivalence tables. The band engine allocates each buffer once and reuses
// it, so the cumulative allocation reported by runtime.ReadMemStats bounds
// the peak heap: peak <= baseline + (TotalAlloc after - TotalAlloc before).
func TestStreamFixedMemory16k(t *testing.T) {
	if testing.Short() {
		t.Skip("268M-pixel stream; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation invalidates the allocation bound")
	}
	const w, h = 16384, 16384
	const bandRows = band.DefaultBandRows

	// One band's working set. Runs: the stripe pattern has one run per 8
	// pixels per row; the run buffer grows geometrically, so allow 2x its
	// final size for append garbage. The equivalence tables (pl and glob,
	// one Label each per possible run of a band) are the O(equivalence
	// table) term of the memory model.
	var (
		bitmapBytes = int64((w / 64) * 8 * bandRows)
		tableBytes  = int64(2 * 4 * (scan.MaxRunLabels(w, bandRows) + 1)) // pl + glob
		runBytes    = int64(2 * 12 * (w / 8) * bandRows)
		seamBytes   = int64(12 * (w / 8))
		bandBytes   = bitmapBytes + tableBytes + runBytes + seamBytes
	)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	src, err := pnm.NewBandReader(newStripeP4(w, h), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := band.Stream(src, band.Options{BandRows: bandRows})
	if err != nil {
		t.Fatal(err)
	}

	runtime.ReadMemStats(&m1)
	allocated := int64(m1.TotalAlloc - m0.TotalAlloc)
	if allocated >= 3*bandBytes {
		t.Errorf("streaming a %dx%d image allocated %d bytes, want < 3x one band (%d)",
			w, h, allocated, 3*bandBytes)
	}
	t.Logf("allocated %.1f MiB for a %.0f MiB (packed) input; one band = %.1f MiB",
		float64(allocated)/(1<<20), float64(w/8*h)/(1<<20), float64(bandBytes)/(1<<20))

	// The stripe image is fully analyzable by hand: w/8 components, each a
	// full-height 1-pixel-wide column.
	if res.NumComponents != w/8 {
		t.Fatalf("%d components, want %d", res.NumComponents, w/8)
	}
	if res.ForegroundPixels != int64(w/8)*h {
		t.Fatalf("%d foreground pixels, want %d", res.ForegroundPixels, int64(w/8)*h)
	}
	for i, c := range res.Components {
		x := 8 * i
		want := stats.Component{
			Label: stats.Label(i + 1),
			Area:  h,
			MinX:  x, MinY: 0, MaxX: x, MaxY: h - 1,
			CentroidX: float64(x), CentroidY: float64(h-1) / 2,
			Runs: h,
		}
		if c != want {
			t.Fatalf("component %d:\n got %+v\nwant %+v", i, c, want)
		}
	}
}

// TestStreamHeaderOnlyReservesNothing streams bodies whose headers name a
// 200000x200000 raster but carry no pixel. Each fails at its first band
// without sizing the band tables from the header, which at BandRows 200000
// would be two 80 GB tables.
func TestStreamHeaderOnlyReservesNothing(t *testing.T) {
	for _, hdr := range []string{"P4\n200000 200000\n", "P5\n200000 200000\n255\n"} {
		for _, rows := range []int{0, 200000} {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			src, err := pnm.NewBandReaderBytes([]byte(hdr), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			_, err = band.Stream(src, band.Options{BandRows: rows})
			runtime.ReadMemStats(&m1)
			if err == nil {
				t.Fatalf("%q at BandRows %d: a header-only body streamed", hdr, rows)
			}
			if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
				t.Errorf("%q at BandRows %d: allocated %d bytes, want < 1 MiB", hdr, rows, got)
			}
		}
	}
}
