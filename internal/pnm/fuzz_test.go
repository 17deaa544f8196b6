package pnm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/binimg"
	"repro/internal/grayccl"
	"repro/internal/vol3d"
)

// The reference decoders below are the per-pixel loops the table-driven
// decoders replaced: a bit test per P4 pixel, a float compare per P5
// sample, v*255/maxVal per gray sample. They share only the token parsing
// (readToken, readDims, readMaxVal, readSample) with the package, and they
// append pixels as they are read, so an oversized header costs them
// nothing.

// refDecode is DecodeInto's reference: a P1, P2, P4 or P5 body binarized
// at level.
func refDecode(body []byte, level float64) (*binimg.Image, error) {
	br := bufio.NewReader(bytes.NewReader(body))
	magic, err := readToken(br)
	if err != nil {
		return nil, err
	}
	var w, h int
	var pix []uint8
	switch magic {
	case "P1", "P4":
		w, h, pix, err = refPBM(br, magic == "P4")
	case "P2", "P5":
		w, h, pix, err = refPGM(br, magic == "P5", func(v, maxVal int) uint8 {
			if float64(v) > level*float64(maxVal) {
				return 1
			}
			return 0
		})
	default:
		err = fmt.Errorf("magic %q", magic)
	}
	if err != nil {
		return nil, err
	}
	return &binimg.Image{Width: w, Height: h, Pix: pix}, nil
}

func refPBM(br *bufio.Reader, raw bool) (w, h int, pix []uint8, err error) {
	if w, h, err = readDims(br); err != nil {
		return 0, 0, nil, err
	}
	if raw {
		rowBuf := make([]byte, (w+7)/8)
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, rowBuf); err != nil {
				return 0, 0, nil, err
			}
			for x := 0; x < w; x++ {
				if rowBuf[x/8]&(0x80>>(x%8)) != 0 {
					pix = append(pix, 1)
				} else {
					pix = append(pix, 0)
				}
			}
		}
		return w, h, pix, nil
	}
	for i := 0; i < w*h; i++ {
		tok, err := readToken(br)
		if err != nil {
			return 0, 0, nil, err
		}
		switch tok {
		case "0":
			pix = append(pix, 0)
		case "1":
			pix = append(pix, 1)
		default:
			return 0, 0, nil, fmt.Errorf("P1 token %q", tok)
		}
	}
	return w, h, pix, nil
}

// refPGM decodes a P2 or P5 body after its magic, mapping every sample
// through f.
func refPGM(br *bufio.Reader, raw bool, f func(v, maxVal int) uint8) (w, h int, pix []uint8, err error) {
	if w, h, err = readDims(br); err != nil {
		return 0, 0, nil, err
	}
	maxVal, err := readMaxVal(br)
	if err != nil {
		return 0, 0, nil, err
	}
	if raw {
		bytesPer := 1
		if maxVal > 255 {
			bytesPer = 2
		}
		buf := make([]byte, w*bytesPer)
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return 0, 0, nil, err
			}
			for x := 0; x < w; x++ {
				v := int(buf[x])
				if bytesPer == 2 {
					v = int(buf[2*x])<<8 | int(buf[2*x+1])
				}
				pix = append(pix, f(v, maxVal))
			}
		}
		return w, h, pix, nil
	}
	for i := 0; i < w*h; i++ {
		v, err := readSample(br, maxVal, i)
		if err != nil {
			return 0, 0, nil, err
		}
		pix = append(pix, f(v, maxVal))
	}
	return w, h, pix, nil
}

func refGray(body []byte) (*grayccl.Image, error) {
	br := bufio.NewReader(bytes.NewReader(body))
	magic, err := readToken(br)
	if err != nil {
		return nil, err
	}
	if magic != "P2" && magic != "P5" {
		return nil, fmt.Errorf("magic %q", magic)
	}
	w, h, pix, err := refPGM(br, magic == "P5", func(v, maxVal int) uint8 { return uint8(v * 255 / maxVal) })
	if err != nil {
		return nil, err
	}
	return &grayccl.Image{Width: w, Height: h, Pix: pix}, nil
}

func refVolume(body []byte, level float64) (*vol3d.Volume, error) {
	br := bufio.NewReader(bytes.NewReader(body))
	v := &vol3d.Volume{}
	for {
		magic, err := readToken(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if magic != "P5" {
			return nil, fmt.Errorf("magic %q", magic)
		}
		w, h, pix, err := refPGM(br, true, func(s, maxVal int) uint8 {
			if float64(s) > level*float64(maxVal) {
				return 1
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		if v.D > 0 && (w != v.W || h != v.H) {
			return nil, fmt.Errorf("frame %d is %dx%d", v.D, w, h)
		}
		v.W, v.H, v.D, v.Vox = w, h, v.D+1, append(v.Vox, pix...)
	}
	if v.D == 0 {
		return nil, fmt.Errorf("no frames")
	}
	return v, nil
}

// starts returns the destinations every decoder runs into: an empty
// buffer, one with room for size elements and one too small for them, both
// pre-filled with full (1s, or all bits set).
func starts[T any](size int, full T) [][]T {
	fill := func(n int) []T {
		s := make([]T, n)
		for i := range s {
			s[i] = full
		}
		return s
	}
	return [][]T{nil, fill(size + 7), fill(size / 3)}
}

// FuzzPNMDecoders checks every table-driven decoder against the reference
// loops: each must fail exactly when the reference fails, and otherwise
// give the same pixels, whether its destination starts empty, large enough
// and pre-filled (which catches a missed write now that nothing is
// cleared), or pre-filled but too small (which catches a lost row when the
// buffer grows). DecodeIntoCount's count must equal ForegroundCount.
func FuzzPNMDecoders(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed.body, seed.level)
	}
	f.Fuzz(func(t *testing.T, body []byte, level float64) {
		magic, _ := readToken(bufio.NewReader(bytes.NewReader(body)))
		want, wantErr := refDecode(body, level)
		size, words := 64, 64
		if wantErr == nil {
			size, words = len(want.Pix), (want.Width+63)/64*want.Height
		}
		for _, start := range starts(size, uint8(1)) {
			im := &binimg.Image{Pix: start}
			fg, err := DecodeIntoCount(bytes.NewReader(body), level, im)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("DecodeIntoCount error %v, reference %v", err, wantErr)
			}
			if err != nil {
				continue
			}
			if !im.Equal(want) {
				t.Fatalf("DecodeIntoCount (start len %d): pixels differ from the reference", len(start))
			}
			if fg != want.ForegroundCount() {
				t.Fatalf("DecodeIntoCount counted %d, raster holds %d", fg, want.ForegroundCount())
			}
		}

		// Only P4 decodes to a bitmap; the band reader takes P4 and P5.
		for _, start := range starts(words, ^uint64(0)) {
			bm := &binimg.Bitmap{Words: start}
			err := DecodePBMBitmapInto(bytes.NewReader(body), bm)
			if (err == nil) != (wantErr == nil && magic == "P4") {
				t.Fatalf("DecodePBMBitmapInto error %v, reference %v (magic %q)", err, wantErr, magic)
			}
			if err == nil {
				checkBitmap(t, "DecodePBMBitmapInto", bm, want)
			}
		}
		checkBands(t, body, level, want, wantErr == nil && (magic == "P4" || magic == "P5"))

		wantGray, wantErr := refGray(body)
		if wantErr == nil {
			size = len(wantGray.Pix)
		}
		for _, start := range starts(size, uint8(1)) {
			g := &grayccl.Image{Pix: start}
			err := DecodeGrayInto(bytes.NewReader(body), g)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("DecodeGrayInto error %v, reference %v", err, wantErr)
			}
			if err == nil && (g.Width != wantGray.Width || g.Height != wantGray.Height || !bytes.Equal(g.Pix, wantGray.Pix)) {
				t.Fatalf("DecodeGrayInto (start len %d): pixels differ from the reference", len(start))
			}
		}

		wantVol, wantErr := refVolume(body, level)
		if wantErr == nil {
			size = len(wantVol.Vox)
		}
		for _, start := range starts(size, uint8(1)) {
			v := &vol3d.Volume{Vox: start}
			err := DecodeVolumeInto(bytes.NewReader(body), level, v)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("DecodeVolumeInto error %v, reference %v", err, wantErr)
			}
			if err == nil && (v.W != wantVol.W || v.H != wantVol.H || v.D != wantVol.D || !bytes.Equal(v.Vox, wantVol.Vox)) {
				t.Fatalf("DecodeVolumeInto (start len %d): voxels differ from the reference", len(start))
			}
		}
	})
}

// checkBitmap compares a decoded bitmap with the reference raster and
// checks the padding invariant.
func checkBitmap(t *testing.T, name string, bm *binimg.Bitmap, want *binimg.Image) {
	t.Helper()
	if bm.Width != want.Width || bm.Height != want.Height || len(bm.Words) != bm.WordsPerRow*bm.Height {
		t.Fatalf("%s: %dx%d bitmap with %d words, reference %dx%d", name, bm.Width, bm.Height, len(bm.Words), want.Width, want.Height)
	}
	if got := bm.ToImage(); !got.Equal(want) {
		t.Fatalf("%s: pixels differ from the reference", name)
	}
	for y := 0; y < bm.Height && bm.WordsPerRow > 0; y++ {
		row := bm.Row(y)
		if row[len(row)-1]&^bm.TailMask() != 0 {
			t.Fatalf("%s: row %d has padding bits set", name, y)
		}
	}
}

// checkBands streams body through a BandReader, three rows at a time into
// one bitmap that starts full of 1s, and checks each band against the
// reference raster's rows; ok says whether the reference decoded the body
// and the band reader takes its format.
func checkBands(t *testing.T, body []byte, level float64, want *binimg.Image, ok bool) {
	t.Helper()
	src, err := NewBandReaderBytes(body, level)
	y := 0
	if err == nil {
		bm := &binimg.Bitmap{Words: starts(16, ^uint64(0))[1]}
		for {
			var n int
			if n, err = src.ReadBand(bm, 3); err != nil {
				break
			}
			if ok {
				if y+n > want.Height {
					t.Fatalf("BandReader: rows %d..%d past the reference's %d", y, y+n, want.Height)
				}
				checkBitmap(t, "BandReader", bm, want.SubImage(0, y, want.Width, n))
			}
			y += n
		}
		if err == io.EOF {
			err = nil
		}
	}
	if (err == nil) != ok {
		t.Fatalf("BandReader error %v, want success %v", err, ok)
	}
	if ok && y != want.Height {
		t.Fatalf("BandReader delivered %d of %d rows", y, want.Height)
	}
}

type fuzzSeed struct {
	body  []byte
	level float64
}

// fuzzSeeds covers the table paths' edges: every P4 tail width from 1 to
// 17 plus the word boundaries 63-65 (rows with their padding bits set),
// maxvals 1, 255, 256 and 65535 with samples above maxval, levels on both
// sides of [0, 1] and NaN, a level whose threshold is an exact integer
// (0.5 at maxval 254), volumes, and short bodies.
func fuzzSeeds() []fuzzSeed {
	rng := rand.New(rand.NewSource(7))
	var seeds []fuzzSeed
	add := func(level float64, parts ...string) {
		var b bytes.Buffer
		for _, p := range parts {
			b.WriteString(p)
		}
		seeds = append(seeds, fuzzSeed{b.Bytes(), level})
	}
	samples := func(n, bytesPer int) string {
		s := make([]byte, n*bytesPer)
		rng.Read(s)
		return string(s)
	}
	plain := func(n, maxVal int) string {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d ", rng.Intn(maxVal+1))
		}
		return b.String()
	}
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65}
	for _, w := range widths {
		h := 3
		dims := fmt.Sprintf("%d %d\n", w, h)
		add(0.5, "P4\n", dims, string(bytes.Repeat([]byte{0xFF}, (w+7)/8*h)))
		add(0.5, "P4\n", dims, samples((w+7)/8*h, 1))
		add(0.5, "P1\n", dims, plain(w*h, 1))
		add(0.5, "P5\n", dims, "255\n", samples(w*h, 1))
		add(0.5, "P2\n", dims, "255\n", plain(w*h, 255))
	}
	levels := []float64{0, 0.35, 0.5, -1, 2, math.NaN()}
	for _, maxVal := range []int{1, 255, 256, 65535} {
		bytesPer := 1
		if maxVal > 255 {
			bytesPer = 2
		}
		hdr := fmt.Sprintf("9 2\n%d\n", maxVal)
		for _, level := range levels {
			add(level, "P5\n", hdr, samples(18, bytesPer))
			add(level, "P2\n", hdr, plain(18, maxVal))
		}
	}
	add(0.5, "P5\n16 16\n254\n", samples(256, 1))
	add(0.5, "P2\n3 1\n254\n126 127 128\n")
	frame := "P5\n5 4\n255\n"
	add(0.5, frame, samples(20, 1), frame, samples(20, 1), frame, samples(20, 1))
	add(0.35, "P5\n3 2\n65535\n", samples(12, 1), "P5\n3 2\n255\n", samples(6, 1))
	add(0.5, frame, samples(20, 1), "P5\n4 5\n255\n", samples(20, 1))
	for _, short := range []string{"P4\n200000 200000\n", "P5\n200000 200000\n255\n", "P4\n16 2\n\x00", "P5\n4 4\n255\nxy", "P4\n0 5\n", "P5\n7 0\n255\n"} {
		add(0.5, short)
	}
	return seeds
}

// TestThresholdMatchesFloatPredicate checks the integer cut against the
// float predicate it replaces for every two-byte sample, and the one-byte
// table for every byte, over levels inside and outside [0, 1], NaN, and
// levels whose threshold is an exact integer or falls just beside one.
func TestThresholdMatchesFloatPredicate(t *testing.T) {
	levels := []float64{0, 0.35, 0.5, 1, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 1e-300, 127.0 / 254, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0)}
	for _, maxVal := range []int{1, 2, 254, 255, 256, 1000, 65534, 65535} {
		for _, level := range levels {
			th := newThreshold(level, maxVal)
			for v := 0; v < 1<<16; v++ {
				want := uint8(0)
				if float64(v) > level*float64(maxVal) {
					want = 1
				}
				if got := th.pixel(v); got != want {
					t.Fatalf("maxval %d level %v sample %d: integer cut gives %d, float predicate %d", maxVal, level, v, got, want)
				}
				if v < 256 && th.bit[v] != want {
					t.Fatalf("maxval %d level %v sample %d: table gives %d, float predicate %d", maxVal, level, v, th.bit[v], want)
				}
			}
		}
	}
}
