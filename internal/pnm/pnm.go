// Package pnm reads and writes the Netpbm formats the experiment pipeline
// uses for image exchange: PBM bitmaps (P1 plain / P4 raw) map directly onto
// binary images, PGM graymaps (P2 plain / P5 raw) are binarized with the
// im2bw(0.5) threshold the paper applies to its datasets. PNG import (via
// the standard library) covers the common interchange case.
//
// Raw rows are decoded through 256-entry lookup tables: a P4 byte expands to
// its eight pixels with one 64-bit store, and an 8-bit P5 sample maps to its
// im2bw bit (or, for gray rasters, its 0..255 value) with one load. The
// whole-image decoders write every pixel, so a reused buffer is never
// cleared first, and they grow the raster with the rows the stream actually
// delivers: a header alone cannot reserve the w*h bytes it names.
//
// Convention note: in PBM, 1 is black. Following the paper's convention that
// object pixels are 1 and the binarized examples show dark objects on light
// background, PBM bit 1 decodes to foreground 1.
package pnm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/binimg"
)

// maxDimension guards against absurd headers in untrusted files.
const maxDimension = 1 << 20

// p4Pixels maps a raw-PBM byte to its eight pixels, one 0/1 byte each, in
// little-endian order: the byte's MSB (the row's leftmost pixel) is the
// lowest byte, so one binary.LittleEndian.PutUint64 writes them in row order.
var p4Pixels [256]uint64

func init() {
	for b := range p4Pixels {
		for i := 0; i < 8; i++ {
			if b&(0x80>>i) != 0 {
				p4Pixels[b] |= 1 << (8 * i)
			}
		}
	}
}

// growRows returns buf resliced to n elements, where n is the end of the row
// about to be written and limit is the whole raster's size. A buffer that
// already has the capacity (a pooled one that held an equal or larger
// raster) is resliced without allocating; a short one is reallocated to
// double its capacity, at least n and at most limit, keeping the rows
// already written. The raster thus grows with the rows a stream delivers.
func growRows[T any](buf []T, n, limit int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	grown := make([]T, n, min(max(2*cap(buf), n), limit))
	copy(grown, buf)
	return grown
}

// Decode reads a PBM (P1/P4) or PGM (P2/P5) stream into a binary image.
// Grayscale pixels are binarized with threshold level (im2bw semantics:
// luminance fraction strictly greater than level becomes foreground).
func Decode(r io.Reader, level float64) (*binimg.Image, error) {
	im := &binimg.Image{}
	if err := DecodeInto(r, level, im); err != nil {
		return nil, err
	}
	return im, nil
}

// DecodeInto is Decode into a caller-provided image whose pixel buffer is
// reused when large enough. Long-lived servers decode request bodies into
// pooled images this way. It is DecodeIntoCount without the count.
func DecodeInto(r io.Reader, level float64, dst *binimg.Image) error {
	_, err := DecodeIntoCount(r, level, dst)
	return err
}

// DecodeIntoCount is DecodeInto that also returns the number of foreground
// pixels it wrote, which is dst.ForegroundCount() without a second pass over
// the raster. Every pixel is written, so dst is not cleared first, and its
// buffer grows with the rows read (see the package doc). On error the
// contents of dst are unspecified.
func DecodeIntoCount(r io.Reader, level float64, dst *binimg.Image) (int, error) {
	br := bufio.NewReader(r)
	magic, err := readToken(br)
	if err != nil {
		return 0, fmt.Errorf("pnm: reading magic: %w", err)
	}
	switch magic {
	case "P1", "P4":
		return decodePBM(br, magic == "P4", dst)
	case "P2", "P5":
		return decodePGM(br, magic == "P5", level, dst)
	default:
		return 0, fmt.Errorf("pnm: unsupported magic %q (want P1, P2, P4 or P5)", magic)
	}
}

func decodePBM(br *bufio.Reader, raw bool, im *binimg.Image) (int, error) {
	w, h, err := readDims(br)
	if err != nil {
		return 0, err
	}
	pix, fg := im.Pix[:0], 0
	if raw {
		// readToken consumed the single post-header whitespace byte, so the
		// packed rows start immediately: each row padded to a whole number
		// of bytes, MSB first.
		rowBuf := make([]byte, (w+7)/8)
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, rowBuf); err != nil {
				return 0, fmt.Errorf("pnm: P4 row %d: %w", y, err)
			}
			pix = growRows(pix, (y+1)*w, w*h)
			fg += expandP4Row(pix[y*w:], rowBuf)
		}
	} else {
		for y := 0; y < h; y++ {
			pix = growRows(pix, (y+1)*w, w*h)
			row := pix[y*w:]
			for x := range row {
				tok, err := readToken(br)
				if err != nil {
					return 0, fmt.Errorf("pnm: P1 pixel %d: %w", y*w+x, err)
				}
				switch tok {
				case "0":
					row[x] = 0
				case "1":
					row[x] = 1
					fg++
				default:
					return 0, fmt.Errorf("pnm: P1 pixel %d: invalid token %q", y*w+x, tok)
				}
			}
		}
	}
	im.Width, im.Height, im.Pix = w, h, pix
	return fg, nil
}

// expandP4Row writes one raw-PBM row to dst, whose length is the image
// width, and returns its foreground count. Each whole byte expands through
// p4Pixels with one 64-bit store; the padding bits past the width in the
// last byte are masked off, from the pixels and the count alike.
func expandP4Row(dst []uint8, row []byte) int {
	full := len(dst) / 8
	n := 0
	for i, b := range row[:full] {
		binary.LittleEndian.PutUint64(dst[8*i:], p4Pixels[b])
		n += bits.OnesCount8(b)
	}
	if r := len(dst) % 8; r != 0 {
		b := row[full] &^ (0xFF >> r)
		var px [8]byte
		binary.LittleEndian.PutUint64(px[:], p4Pixels[b])
		copy(dst[8*full:], px[:r])
		n += bits.OnesCount8(b)
	}
	return n
}

// DecodePBMBitmapInto decodes a raw PBM (P4) stream directly into a packed
// 1-bit-per-pixel bitmap whose word buffer is reused when large enough. P4
// rows are already bit-packed (MSB first within each byte), so each row is
// copied packed-to-packed, eight bytes to one LSB-first word, and its tail
// padding bits are masked to preserve the Bitmap invariant, instead of being
// unpacked to a byte per pixel. This is the fast ingest path for the
// bit-packed labelers (BREMSP/PBREMSP): the byte raster is never
// materialized. Every word is written, so dst is not cleared first, and its
// buffer grows with the rows read. On error the contents of dst are
// unspecified.
func DecodePBMBitmapInto(r io.Reader, dst *binimg.Bitmap) error {
	br := bufio.NewReader(r)
	magic, err := readToken(br)
	if err != nil {
		return fmt.Errorf("pnm: reading magic: %w", err)
	}
	if magic != "P4" {
		return fmt.Errorf("pnm: bitmap decode wants raw PBM magic P4, got %q", magic)
	}
	w, h, err := readDims(br)
	if err != nil {
		return err
	}
	bm := binimg.Bitmap{Width: w, Height: h, WordsPerRow: (w + 63) / 64, Words: dst.Words[:0]}
	wpr, tail := bm.WordsPerRow, bm.TailMask()
	rowBuf := make([]byte, (w+7)/8)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(br, rowBuf); err != nil {
			return fmt.Errorf("pnm: P4 row %d: %w", y, err)
		}
		bm.Words = growRows(bm.Words, (y+1)*wpr, h*wpr)
		packP4Row(bm.Words[y*wpr:(y+1)*wpr], rowBuf, tail)
	}
	*dst = bm
	return nil
}

// packP4Row writes one raw-PBM row (MSB-first within each byte) as a row of
// LSB-first bitmap words, reversing the bits of each byte eight bytes at a
// time, and masks the row's padding bits with tail to preserve the Bitmap
// tail-bits-zero invariant. Shared by the whole-image and band decoders.
func packP4Row(words []uint64, row []byte, tail uint64) {
	i := 0
	for ; i+8 <= len(row); i += 8 {
		words[i/8] = reverseByteBits(binary.LittleEndian.Uint64(row[i:]))
	}
	if i < len(row) {
		var last [8]byte
		copy(last[:], row[i:])
		words[i/8] = reverseByteBits(binary.LittleEndian.Uint64(last[:]))
	}
	if len(words) > 0 {
		words[len(words)-1] &= tail
	}
}

// reverseByteBits reverses the bit order within each byte of v, keeping the
// bytes in place.
func reverseByteBits(v uint64) uint64 {
	return bits.ReverseBytes64(bits.Reverse64(v))
}

// packBits writes a row of 0/1 pixel bytes as LSB-first bitmap words, eight
// pixels per multiply: the product routes bit 8k of a little-endian load to
// bit 56+k. Bits past the row's end are zero.
func packBits(words []uint64, pix []uint8) {
	for i := range words {
		chunk := pix[64*i : min(64*i+64, len(pix))]
		var word uint64
		j := 0
		for ; j+8 <= len(chunk); j += 8 {
			word |= binary.LittleEndian.Uint64(chunk[j:]) * 0x0102040810204080 >> 56 << j
		}
		for ; j < len(chunk); j++ {
			word |= uint64(chunk[j]) << j
		}
		words[i] = word
	}
}

// threshold is the im2bw rule for PGM samples: sample v is foreground when
// float64(v) > level*float64(maxVal), strictly. It is the one binarizer
// behind DecodeInto, DecodeVolumeInto and BandReader.
type threshold struct {
	wide bool       // two big-endian bytes per sample (maxVal > 255)
	min  int        // the smallest foreground sample, 1<<16 when none is
	bit  [256]uint8 // one-byte samples: bit[v] is v's 0/1 pixel
}

func newThreshold(level float64, maxVal int) threshold {
	t := threshold{wide: maxVal > 255}
	cut := level * float64(maxVal)
	for v := range t.bit {
		if float64(v) > cut {
			t.bit[v] = 1
		}
	}
	// The predicate is monotone in v (and false throughout for a NaN
	// level), so a binary search over every two-byte sample finds the
	// integer cut that agrees with it everywhere.
	t.min = sort.Search(1<<16, func(v int) bool { return float64(v) > cut })
	return t
}

// pixel returns sample v's 0/1 pixel.
func (t *threshold) pixel(v int) uint8 {
	if v >= t.min {
		return 1
	}
	return 0
}

// row binarizes one raw P5 row, src, into dst (one 0/1 byte per sample) and
// returns its foreground count.
func (t *threshold) row(dst []uint8, src []byte) int {
	n := 0
	if !t.wide {
		for x, v := range src[:len(dst)] {
			p := t.bit[v]
			dst[x] = p
			n += int(p)
		}
		return n
	}
	for x := range dst {
		p := t.pixel(int(src[2*x])<<8 | int(src[2*x+1]))
		dst[x] = p
		n += int(p)
	}
	return n
}

func decodePGM(br *bufio.Reader, raw bool, level float64, im *binimg.Image) (int, error) {
	w, h, err := readDims(br)
	if err != nil {
		return 0, err
	}
	maxVal, err := readMaxVal(br)
	if err != nil {
		return 0, err
	}
	t := newThreshold(level, maxVal)
	pix, fg := im.Pix[:0], 0
	if raw {
		rowBuf := make([]byte, p5RowBytes(w, maxVal))
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, rowBuf); err != nil {
				return 0, fmt.Errorf("pnm: P5 row %d: %w", y, err)
			}
			pix = growRows(pix, (y+1)*w, w*h)
			fg += t.row(pix[y*w:], rowBuf)
		}
	} else {
		for y := 0; y < h; y++ {
			pix = growRows(pix, (y+1)*w, w*h)
			row := pix[y*w:]
			for x := range row {
				v, err := readSample(br, maxVal, y*w+x)
				if err != nil {
					return 0, err
				}
				row[x] = t.pixel(v)
				fg += int(row[x])
			}
		}
	}
	im.Width, im.Height, im.Pix = w, h, pix
	return fg, nil
}

// readSample reads plain-PGM (P2) sample i and checks it against maxVal.
func readSample(br *bufio.Reader, maxVal, i int) (int, error) {
	tok, err := readToken(br)
	if err != nil {
		return 0, fmt.Errorf("pnm: P2 pixel %d: %w", i, err)
	}
	v, err := strconv.Atoi(tok)
	if err != nil || v < 0 || v > maxVal {
		return 0, fmt.Errorf("pnm: P2 pixel %d: invalid value %q", i, tok)
	}
	return v, nil
}

// readDims reads and validates the width and height tokens.
func readDims(br *bufio.Reader) (int, int, error) {
	wTok, err := readToken(br)
	if err != nil {
		return 0, 0, fmt.Errorf("pnm: reading width: %w", err)
	}
	hTok, err := readToken(br)
	if err != nil {
		return 0, 0, fmt.Errorf("pnm: reading height: %w", err)
	}
	w, err := strconv.Atoi(wTok)
	if err != nil || w < 0 || w > maxDimension {
		return 0, 0, fmt.Errorf("pnm: invalid width %q", wTok)
	}
	h, err := strconv.Atoi(hTok)
	if err != nil || h < 0 || h > maxDimension {
		return 0, 0, fmt.Errorf("pnm: invalid height %q", hTok)
	}
	return w, h, nil
}

// readToken returns the next whitespace-delimited token, skipping '#'
// comments (which run to end of line), per the Netpbm grammar.
func readToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#' && len(tok) == 0:
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

// EncodePBM writes im as a PBM bitmap: raw packed P4 when raw is true,
// plain-text P1 otherwise.
func EncodePBM(w io.Writer, im *binimg.Image, raw bool) error {
	bw := bufio.NewWriter(w)
	if raw {
		fmt.Fprintf(bw, "P4\n%d %d\n", im.Width, im.Height)
		stride := (im.Width + 7) / 8
		rowBuf := make([]byte, stride)
		for y := 0; y < im.Height; y++ {
			for i := range rowBuf {
				rowBuf[i] = 0
			}
			for x := 0; x < im.Width; x++ {
				if im.Pix[y*im.Width+x] != 0 {
					rowBuf[x/8] |= 0x80 >> (x % 8)
				}
			}
			if _, err := bw.Write(rowBuf); err != nil {
				return fmt.Errorf("pnm: writing P4 row %d: %w", y, err)
			}
		}
		return bw.Flush()
	}
	fmt.Fprintf(bw, "P1\n%d %d\n", im.Width, im.Height)
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			if x > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteByte('0' + im.Pix[y*im.Width+x])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// EncodePGM writes a label map as a raw P5 graymap for quick visual
// inspection: background is 0 and labels cycle through 64..255, so adjacent
// components are usually distinguishable.
func EncodePGM(w io.Writer, lm *binimg.LabelMap) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", lm.Width, lm.Height)
	for _, v := range lm.L {
		if v == 0 {
			bw.WriteByte(0)
		} else {
			bw.WriteByte(byte(64 + (v-1)%192))
		}
	}
	return bw.Flush()
}

// DecodePNG reads a PNG stream and binarizes it with the im2bw(level)
// semantics the paper uses: the pixel's luminance (Rec. 601, as computed by
// the standard library's grayscale conversion) strictly greater than
// level*65535 becomes foreground.
func DecodePNG(r io.Reader, level float64) (*binimg.Image, error) {
	im := &binimg.Image{}
	if _, err := DecodePNGInto(r, level, im); err != nil {
		return nil, err
	}
	return im, nil
}

// DecodePNGInto is DecodePNG into a caller-provided image, reshaped with
// Reset so its pixel buffer is reused when large enough, and returns the
// foreground count it wrote. (The intermediate image.Image the standard
// decoder builds is still allocated per call.)
func DecodePNGInto(r io.Reader, level float64, dst *binimg.Image) (int, error) {
	src, err := png.Decode(r)
	if err != nil {
		return 0, fmt.Errorf("pnm: decoding png: %w", err)
	}
	b := src.Bounds()
	dst.Reset(b.Dx(), b.Dy())
	thresh := level * 65535
	fg := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			g := color.Gray16Model.Convert(src.At(x, y)).(color.Gray16)
			if float64(g.Y) > thresh {
				dst.Pix[(y-b.Min.Y)*dst.Width+(x-b.Min.X)] = 1
				fg++
			}
		}
	}
	return fg, nil
}

// EncodePNG writes a label map as a grayscale PNG (same palette rule as
// EncodePGM).
func EncodePNG(w io.Writer, lm *binimg.LabelMap) error {
	img := image.NewGray(image.Rect(0, 0, lm.Width, lm.Height))
	for i, v := range lm.L {
		if v != 0 {
			img.Pix[i] = byte(64 + (v-1)%192)
		}
	}
	return png.Encode(w, img)
}
