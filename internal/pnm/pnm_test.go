package pnm_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/grayccl"
	"repro/internal/pnm"
	"repro/internal/vol3d"
)

func TestDecodeP1(t *testing.T) {
	src := "P1\n# a comment\n3 2\n1 0 1\n0 1 0\n"
	im, err := pnm.Decode(strings.NewReader(src), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := binimg.MustParse("#.#\n.#.")
	if !im.Equal(want) {
		t.Fatalf("decoded:\n%s\nwant:\n%s", im, want)
	}
}

func TestDecodeP1CompactDigits(t *testing.T) {
	// P1 allows unseparated digits? The strict grammar requires whitespace;
	// our reader requires separated tokens and must reject glued digits.
	src := "P1\n2 1\n10\n"
	if _, err := pnm.Decode(strings.NewReader(src), 0.5); err == nil {
		t.Fatal("glued P1 digits accepted")
	}
}

func TestDecodeP2Threshold(t *testing.T) {
	// maxval 255, level 0.5 -> threshold 127.5: 127 bg, 128 fg.
	src := "P2\n4 1\n255\n0 127 128 255\n"
	im, err := pnm.Decode(strings.NewReader(src), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 0, 1, 1}
	for i, wv := range want {
		if im.Pix[i] != wv {
			t.Fatalf("pixel %d = %d, want %d", i, im.Pix[i], wv)
		}
	}
}

func TestDecodeP5SixteenBit(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("P5\n2 1\n65535\n")
	buf.Write([]byte{0x00, 0x00, 0xFF, 0xFF}) // 0 and 65535
	im, err := pnm.Decode(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatalf("16-bit decode wrong: %v", im.Pix)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad magic":       "P7\n1 1\n0\n",
		"missing dims":    "P1\n3\n",
		"negative width":  "P1\n-1 2\n",
		"huge width":      "P1\n99999999 2\n",
		"bad pixel":       "P1\n1 1\n7\n",
		"bad maxval":      "P2\n1 1\n0\n5\n",
		"truncated P4":    "P4\n16 2\n\x00",
		"truncated P5":    "P5\n4 4\n255\nxy",
		"pgm value range": "P2\n1 1\n255\n300\n",
	}
	for name, src := range cases {
		if _, err := pnm.Decode(strings.NewReader(src), 0.5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPBMRoundTripBothForms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		im := binimg.New(w, h)
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(2))
		}
		for _, raw := range []bool{false, true} {
			var buf bytes.Buffer
			if err := pnm.EncodePBM(&buf, im, raw); err != nil {
				return false
			}
			back, err := pnm.Decode(&buf, 0.5)
			if err != nil || !back.Equal(im) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestP4PacksRowPadding(t *testing.T) {
	// Width 9 needs 2 bytes per row; padding bits must be ignored.
	im := binimg.New(9, 2)
	im.Set(8, 0, 1)
	im.Set(0, 1, 1)
	var buf bytes.Buffer
	if err := pnm.EncodePBM(&buf, im, true); err != nil {
		t.Fatal(err)
	}
	// Header "P4\n9 2\n" + 4 data bytes.
	wantLen := len("P4\n9 2\n") + 4
	if buf.Len() != wantLen {
		t.Fatalf("P4 size = %d, want %d", buf.Len(), wantLen)
	}
	back, err := pnm.Decode(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(im) {
		t.Fatalf("round trip:\n%s\nwant:\n%s", back, im)
	}
}

// TestEncodePGMLabelPalette checks the header and every pixel of a
// width-7 map against the palette rule: background 0, label v gray
// 64 + (v-1) mod 192. The second row holds the labels in reverse.
func TestEncodePGMLabelPalette(t *testing.T) {
	labels := []binimg.Label{0, 1, 192, 193, 384, 385, math.MaxInt32}
	grays := []byte{0, 64, 255, 64, 255, 64, 190}
	lm := binimg.NewLabelMap(len(labels), 2)
	want := []byte("P5\n7 2\n255\n")
	want = append(want, grays...)
	for x, v := range labels {
		lm.Set(x, 0, v)
		lm.Set(len(labels)-1-x, 1, v)
	}
	want = append(want, grays...)
	slices.Reverse(want[len(want)-len(grays):])
	var buf bytes.Buffer
	if err := pnm.EncodePGM(&buf, lm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("EncodePGM = %q, want %q", buf.Bytes(), want)
	}
}

// TestEncodePGMAllocatesPerMap: the encoder shades one row buffer per
// map, so a map 100 times taller allocates as often. Both heights are
// above 255, so the header's fmt call boxes both alike.
func TestEncodePGMAllocatesPerMap(t *testing.T) {
	allocs := func(h int) float64 {
		lm := binimg.NewLabelMap(7, h)
		for i := range lm.L {
			lm.L[i] = binimg.Label(i % 5)
		}
		return testing.AllocsPerRun(10, func() {
			if err := pnm.EncodePGM(io.Discard, lm); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, tall := allocs(300), allocs(30000); short != tall {
		t.Fatalf("EncodePGM allocates %v times for 300 rows, %v for 30000", short, tall)
	}
}

func TestDecodePNG(t *testing.T) {
	src := image.NewGray(image.Rect(0, 0, 3, 1))
	src.SetGray(0, 0, color.Gray{Y: 0})
	src.SetGray(1, 0, color.Gray{Y: 100})
	src.SetGray(2, 0, color.Gray{Y: 200})
	var buf bytes.Buffer
	if err := png.Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	im, err := pnm.DecodePNG(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if im.Pix[0] != 0 || im.Pix[1] != 0 || im.Pix[2] != 1 {
		t.Fatalf("png binarization wrong: %v", im.Pix)
	}
}

// TestDecodePNGColorUsesLuminance decodes a red and a white pixel stored
// as truecolor and as paletted PNGs, with and without a tRNS chunk: the
// header read for a paletted image runs on through PLTE (and tRNS), and
// the decode must still see the whole stream.
func TestDecodePNGColorUsesLuminance(t *testing.T) {
	red := color.RGBA{R: 255, A: 255} // dark-ish red
	white := color.RGBA{R: 255, G: 255, B: 255, A: 255}
	rgba := image.NewRGBA(image.Rect(0, 0, 2, 1))
	rgba.Set(0, 0, red)
	rgba.Set(1, 0, white)
	paletted := image.NewPaletted(image.Rect(0, 0, 2, 1), color.Palette{red, white})
	paletted.SetColorIndex(1, 0, 1)
	transparent := image.NewPaletted(image.Rect(0, 0, 2, 1), color.Palette{red, white, color.RGBA{}})
	transparent.SetColorIndex(1, 0, 1)
	for name, src := range map[string]image.Image{"rgba": rgba, "paletted": paletted, "paletted-trns": transparent} {
		var buf bytes.Buffer
		if err := png.Encode(&buf, src); err != nil {
			t.Fatal(err)
		}
		im, err := pnm.DecodePNG(&buf, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Rec. 601 luma of pure red is ~0.30 -> background at level 0.5.
		if im.Pix[0] != 0 || im.Pix[1] != 1 {
			t.Fatalf("%s: luminance binarization wrong: %v", name, im.Pix)
		}
	}
}

func TestEncodePNGRoundTripMask(t *testing.T) {
	img := dataset.Blobs(32, 24, 5, 2, 4, 7)
	lm := binimg.NewLabelMap(32, 24)
	for i, v := range img.Pix {
		if v != 0 {
			lm.L[i] = 1
		}
	}
	var buf bytes.Buffer
	if err := pnm.EncodePNG(&buf, lm); err != nil {
		t.Fatal(err)
	}
	back, err := pnm.DecodePNG(&buf, 0.1) // any label byte (>=64) exceeds 0.1*65535
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Fatal("png label mask round trip failed")
	}
}

func TestDecodeBadPNG(t *testing.T) {
	if _, err := pnm.DecodePNG(strings.NewReader("not a png"), 0.5); err == nil {
		t.Fatal("garbage accepted as png")
	}
}

// TestDecodePBMBitmapInto checks the packed P4 fast path against the
// byte-unpacking decoder across word-boundary widths, and that the full
// round trip (encode P4 -> bitmap decode -> encode P4) is byte-identical
// to the byte-raster path.
func TestDecodePBMBitmapInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bm := &binimg.Bitmap{} // reused across sizes: exercises Reset pooling
	for _, w := range []int{1, 7, 8, 9, 63, 64, 65, 100, 128, 129} {
		for _, h := range []int{1, 3, 17} {
			img := binimg.New(w, h)
			for i := range img.Pix {
				if rng.Intn(2) == 1 {
					img.Pix[i] = 1
				}
			}
			var buf bytes.Buffer
			if err := pnm.EncodePBM(&buf, img, true); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()

			if err := pnm.DecodePBMBitmapInto(bytes.NewReader(raw), bm); err != nil {
				t.Fatalf("%dx%d: %v", w, h, err)
			}
			if got := bm.ToImage(); !got.Equal(img) {
				t.Fatalf("%dx%d: bitmap decode disagrees with source\ngot:\n%s\nwant:\n%s", w, h, got, img)
			}
			tail := bm.TailMask()
			for y := 0; y < h; y++ {
				row := bm.Row(y)
				if row[len(row)-1]&^tail != 0 {
					t.Fatalf("%dx%d row %d: padding bits survived decode", w, h, y)
				}
			}

			var back bytes.Buffer
			if err := pnm.EncodePBM(&back, bm.ToImage(), true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), raw) {
				t.Fatalf("%dx%d: P4 round trip through bitmap not byte-identical", w, h)
			}
		}
	}
}

func TestDecodePBMBitmapIntoRejectsNonP4(t *testing.T) {
	for _, src := range []string{"P1\n2 2\n1 0\n0 1\n", "P5\n2 2\n255\nabcd", "Px\n"} {
		if err := pnm.DecodePBMBitmapInto(strings.NewReader(src), &binimg.Bitmap{}); err == nil {
			t.Fatalf("accepted %q", src[:2])
		}
	}
}

func TestDecodePBMBitmapIntoTruncated(t *testing.T) {
	if err := pnm.DecodePBMBitmapInto(strings.NewReader("P4\n16 4\n\x01\x02"), &binimg.Bitmap{}); err == nil {
		t.Fatal("truncated P4 accepted")
	}
}

// TestHeaderOnlyBodyAllocatesByRows sends every decoder a header that names
// a 200000x200000 raster (40 GB as bytes) and no pixel bytes. Each must
// fail, and since the decoders grow their rasters with the rows delivered,
// none may allocate more than a row's working buffers. The PNG decoders
// get testdata/huge-ihdr.png (an IHDR naming a 200000x200000 8-bit gray
// image, then a 4-byte IDAT), which they must refuse from the header: the
// standard decoder sizes the whole image before reading a pixel. A
// 12000x12000 gray header with a tRNS chunk is refused too, since tRNS
// makes that image 576 MB of NRGBA.
func TestHeaderOnlyBodyAllocatesByRows(t *testing.T) {
	const dims = "200000 200000\n"
	hugePNG, err := os.ReadFile(filepath.Join("testdata", "huge-ihdr.png"))
	if err != nil {
		t.Fatal(err)
	}
	intoPNG := func(body string) error {
		_, err := pnm.DecodePNGInto(strings.NewReader(body), 0.5, &binimg.Image{})
		return err
	}
	intoImage := func(body string) error { return pnm.DecodeInto(strings.NewReader(body), 0.5, &binimg.Image{}) }
	intoGray := func(body string) error { return pnm.DecodeGrayInto(strings.NewReader(body), &grayccl.Image{}) }
	intoBitmap := func(body string) error {
		_, err := pnm.DecodeBitmapInto(strings.NewReader(body), 0.5, &binimg.Bitmap{})
		return err
	}
	bands := func(body string) error {
		src, err := pnm.NewBandReader(strings.NewReader(body), 0.5)
		if err != nil {
			return err
		}
		_, err = src.ReadBand(&binimg.Bitmap{}, 256)
		return err
	}
	cases := []struct {
		name   string
		body   string
		decode func(string) error
	}{
		{"DecodeInto/P1", "P1\n" + dims, intoImage},
		{"DecodeInto/P2", "P2\n" + dims + "255\n", intoImage},
		{"DecodeInto/P4", "P4\n" + dims, intoImage},
		{"DecodeInto/P5", "P5\n" + dims + "255\n", intoImage},
		{"DecodeInto/P5-16bit", "P5\n" + dims + "65535\n", intoImage},
		{"DecodePBMBitmapInto", "P4\n" + dims, func(body string) error {
			return pnm.DecodePBMBitmapInto(strings.NewReader(body), &binimg.Bitmap{})
		}},
		{"DecodeBitmapInto/P1", "P1\n" + dims, intoBitmap},
		{"DecodeBitmapInto/P2", "P2\n" + dims + "255\n", intoBitmap},
		{"DecodeBitmapInto/P4", "P4\n" + dims, intoBitmap},
		{"DecodeBitmapInto/P5", "P5\n" + dims + "255\n", intoBitmap},
		{"DecodeGrayInto/P2", "P2\n" + dims + "255\n", intoGray},
		{"DecodeGrayInto/P5", "P5\n" + dims + "255\n", intoGray},
		{"DecodeGrayInto/P5-16bit", "P5\n" + dims + "65535\n", intoGray},
		{"DecodeVolumeInto", "P5\n" + dims + "255\n", func(body string) error {
			return pnm.DecodeVolumeInto(strings.NewReader(body), 0.5, &vol3d.Volume{})
		}},
		{"BandReader/P4", "P4\n" + dims, bands},
		{"BandReader/P5", "P5\n" + dims + "255\n", bands},
		{"DecodePNGInto", string(hugePNG), intoPNG},
		{"DecodePNGBitmapInto", string(hugePNG), func(body string) error {
			_, err := pnm.DecodePNGBitmapInto(strings.NewReader(body), 0.5, &binimg.Bitmap{})
			return err
		}},
		{"DecodePNGGrayInto", string(hugePNG), func(body string) error {
			return pnm.DecodePNGGrayInto(strings.NewReader(body), &grayccl.Image{})
		}},
		{"DecodePNGInto/tRNS", grayPNGHeader(12000, 12000, "tRNS\x00\x00"), intoPNG},
	}
	for _, c := range cases {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := c.decode(c.body)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: a header-only body decoded without error", c.name)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte body, want < 1 MiB", c.name, alloc, len(c.body))
		}
	}
}

// grayPNGHeader is a PNG signature, an IHDR naming a w x h 8-bit gray
// image, the given chunks (each a 4-byte type then its data) and a 4-byte
// IDAT, every chunk with a valid CRC.
func grayPNGHeader(w, h uint32, chunks ...string) string {
	var b bytes.Buffer
	b.WriteString("\x89PNG\r\n\x1a\n")
	ihdr := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32([]byte("IHDR"), w), h)
	ihdr = append(ihdr, 8, 0, 0, 0, 0)
	for _, c := range append([]string{string(ihdr)}, append(chunks, "IDAT\x78\x9c\x63\x00")...) {
		binary.Write(&b, binary.BigEndian, uint32(len(c)-4))
		b.WriteString(c)
		binary.Write(&b, binary.BigEndian, crc32.ChecksumIEEE([]byte(c)))
	}
	return b.String()
}

// TestVolumeDecodeAllocatesPerStream: one reader reads every frame of a
// volume, re-reading each header in place, so a decode into a reused
// volume allocates as often for 2 frames as for 64.
func TestVolumeDecodeAllocatesPerStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stack := func(depth int) []byte {
		var b bytes.Buffer
		for z := 0; z < depth; z++ {
			// Alternate maxvals so every frame rebuilds its threshold, and
			// put a comment in some headers.
			fmt.Fprintf(&b, "P5\n# slice %d\n32 16\n%d\n", z, 200+55*(z%2))
			pix := make([]byte, 32*16)
			rng.Read(pix)
			b.Write(pix)
		}
		return b.Bytes()
	}
	allocs := func(body []byte) float64 {
		v := &vol3d.Volume{}
		decode := func() {
			if err := pnm.DecodeVolumeInto(bytes.NewReader(body), 0.5, v); err != nil {
				t.Fatal(err)
			}
		}
		decode() // size v's voxel buffer
		return testing.AllocsPerRun(20, decode)
	}
	if two, many := allocs(stack(2)), allocs(stack(64)); two != many {
		t.Fatalf("a decode into a reused volume allocates %v times for 2 frames, %v for 64", two, many)
	}
}

// TestPNGDecodeAllocatesPerStream: the luma loops read each image type's
// pixels directly, so a PNG decode allocates as often for 16x16 pixels as
// for 256x256, for every image type png.Decode returns that a test body
// here produces (gray, truecolor, truecolor with alpha, paletted) and into
// a byte raster, a bitmap or a gray raster alike.
func TestPNGDecodeAllocatesPerStream(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	body := func(kind string, n int) []byte {
		r := image.Rect(0, 0, n, n)
		var src image.Image
		switch kind {
		case "gray":
			m := image.NewGray(r)
			rng.Read(m.Pix)
			src = m
		case "rgb":
			m := image.NewRGBA(r)
			rng.Read(m.Pix)
			for i := 3; i < len(m.Pix); i += 4 {
				m.Pix[i] = 0xFF
			}
			src = m
		case "nrgba":
			m := image.NewNRGBA(r)
			rng.Read(m.Pix)
			src = m
		case "paletted":
			m := image.NewPaletted(r, color.Palette{color.Black, color.White, color.NRGBA{R: 200, A: 90}})
			for i := range m.Pix {
				m.Pix[i] = uint8(rng.Intn(3))
			}
			src = m
		}
		var buf bytes.Buffer
		if err := png.Encode(&buf, src); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	im, bm, g := &binimg.Image{}, &binimg.Bitmap{}, &grayccl.Image{}
	decoders := map[string]func(r *bytes.Reader) error{
		"DecodePNGInto": func(r *bytes.Reader) error {
			_, err := pnm.DecodePNGInto(r, 0.5, im)
			return err
		},
		"DecodePNGBitmapInto": func(r *bytes.Reader) error {
			_, err := pnm.DecodePNGBitmapInto(r, 0.5, bm)
			return err
		},
		"DecodePNGGrayInto": func(r *bytes.Reader) error { return pnm.DecodePNGGrayInto(r, g) },
	}
	for _, kind := range []string{"gray", "rgb", "nrgba", "paletted"} {
		small, large := body(kind, 16), body(kind, 256)
		for name, decode := range decoders {
			allocs := func(b []byte) float64 {
				return testing.AllocsPerRun(5, func() {
					if err := decode(bytes.NewReader(b)); err != nil {
						t.Fatal(err)
					}
				})
			}
			if s, l := allocs(small), allocs(large); l > s {
				t.Errorf("%s/%s: %v allocations for 16x16 pixels, %v for 256x256", name, kind, s, l)
			}
		}
	}
}
