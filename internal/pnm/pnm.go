// Package pnm reads and writes the Netpbm formats the experiment pipeline
// uses for image exchange: PBM bitmaps (P1 plain / P4 raw) map directly onto
// binary images, PGM graymaps (P2 plain / P5 raw) are binarized with the
// im2bw(0.5) threshold the paper applies to its datasets. PNG import (via
// the standard library) covers the common interchange case; its IHDR is
// checked against a size budget before the standard decoder allocates the
// image it names.
//
// Every Netpbm decoder reads through one reader, which parses the magic,
// the dimensions and the maxval once and hands out rows in the raw layout,
// re-encoding a plain (P1/P2) row's tokens as the P4/P5 row they stand for.
// One row loop converts those rows into the destination: a P4 byte expands
// through a 256-entry table to its eight pixels with one 64-bit store, or
// eight P4 bytes bit-reverse into one packed bitmap word, and an 8-bit
// sample maps through a 256-entry table to its im2bw bit (or, for gray
// rasters, its 0..255 value) with one load. The loop writes every pixel, so
// a reused buffer is never cleared first, and it grows the destination with
// the rows the stream actually delivers: a header alone cannot reserve the
// w*h bytes it names.
//
// Convention note: in PBM, 1 is black. Following the paper's convention that
// object pixels are 1 and the binarized examples show dark objects on light
// background, PBM bit 1 decodes to foreground 1.
package pnm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/bits"
	"sort"

	"repro/internal/binimg"
)

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
	rd, err := newReader(bufio.NewReader(r), "P1", "P2", "P4", "P5")
	if err != nil {
		return 0, err
	}
	conv := expandP4Row
	if rd.pgm() {
		t := newThreshold(level, rd.maxVal)
		conv = t.row
	}
	pix, fg, err := readRows(rd, dst.Pix[:0], rd.h, rd.w, rd.w*rd.h, conv)
	if err != nil {
		return 0, err
	}
	dst.Width, dst.Height, dst.Pix = rd.w, rd.h, pix
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
// behind DecodeInto, DecodeVolumeInto, BandReader (and so DecodeBitmapInto)
// and, at maxVal 65535 on 16-bit luminance, the PNG decoders.
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

// binarizeLuma binarizes a row of 16-bit luminance into dst (one 0/1 byte per
// pixel) and returns its foreground count; the threshold must be built for
// maxVal 65535.
func (t *threshold) binarizeLuma(dst []uint8, luma []uint16) int {
	n := 0
	for x, v := range luma {
		p := t.pixel(int(v))
		dst[x] = p
		n += int(p)
	}
	return n
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
// components are usually distinguishable. Each row is shaded into one row
// buffer and written whole.
func EncodePGM(w io.Writer, lm *binimg.LabelMap) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", lm.Width, lm.Height)
	row := make([]byte, lm.Width)
	for y := 0; y < lm.Height; y++ {
		for x, v := range lm.L[y*lm.Width : (y+1)*lm.Width] {
			row[x] = 0
			if v != 0 {
				row[x] = byte(64 + (v-1)%192)
			}
		}
		if _, err := bw.Write(row); err != nil {
			return err
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
	t, fg := newThreshold(level, 65535), 0
	err := decodePNGLuma(r, dst.Reset, func(y int, luma []uint16) {
		fg += t.binarizeLuma(dst.Pix[y*dst.Width:(y+1)*dst.Width], luma)
	})
	return fg, err
}

// DecodePNGBitmapInto is DecodePNGInto into a packed bitmap, reshaped with
// Reset: each row is binarized by the same threshold and packed, so the
// byte raster is never built.
func DecodePNGBitmapInto(r io.Reader, level float64, dst *binimg.Bitmap) (int, error) {
	t, fg := newThreshold(level, 65535), 0
	var pix []uint8
	reset := func(w, h int) {
		dst.Reset(w, h)
		pix = make([]uint8, w)
	}
	err := decodePNGLuma(r, reset, func(y int, luma []uint16) {
		fg += t.binarizeLuma(pix, luma)
		packBits(dst.Row(y), pix)
	})
	return fg, err
}

// maxPNGImageBytes caps the image png.Decode may build for one stream. It
// is the byte raster the largest raw P4 body under ccserve's default
// 64 MiB body cap decodes to.
const maxPNGImageBytes = 512 << 20

// decodePNGLuma decodes a PNG stream, reshapes the destination with reset
// and hands row each row's index and its pixels' 16-bit Rec. 601
// luminance, as the standard library's grayscale conversion computes it.
// The luma buffer is reused from row to row.
//
// png.Decode allocates the whole image its IHDR names before it reads a
// pixel, so the header is read first: png.DecodeConfig reads through a tee
// (for a paletted image it reads on through PLTE), and png.Decode then
// reads the recorded bytes followed by the rest of r, so the body is read
// once. A side over binimg.MaxDimension, or an image over
// maxPNGImageBytes, is refused before anything its size is allocated.
func decodePNGLuma(r io.Reader, reset func(w, h int), row func(y int, luma []uint16)) error {
	var head bytes.Buffer
	cfg, err := png.DecodeConfig(io.TeeReader(r, &head))
	if err != nil {
		return fmt.Errorf("pnm: decoding png: %w", err)
	}
	if cfg.Width > binimg.MaxDimension || cfg.Height > binimg.MaxDimension {
		return fmt.Errorf("pnm: png is %dx%d, over the %d-pixel side limit",
			cfg.Width, cfg.Height, binimg.MaxDimension)
	}
	// Count the widest image png.Decode may build for the color type: a
	// tRNS chunk, which DecodeConfig stops before, turns a gray or
	// truecolor image into NRGBA (4 bytes per pixel) or, at 16 bits,
	// NRGBA64 (8); a paletted image stays one byte per pixel.
	bytesPerPixel := int64(4)
	if _, paletted := cfg.ColorModel.(color.Palette); paletted {
		bytesPerPixel = 1
	} else if m := cfg.ColorModel; m == color.Gray16Model || m == color.RGBA64Model || m == color.NRGBA64Model {
		bytesPerPixel = 8
	}
	if size := int64(cfg.Width) * int64(cfg.Height) * bytesPerPixel; size > maxPNGImageBytes {
		return fmt.Errorf("pnm: png is %dx%d, up to %d bytes decoded, over the %d-byte limit",
			cfg.Width, cfg.Height, size, maxPNGImageBytes)
	}
	src, err := png.Decode(io.MultiReader(&head, r))
	if err != nil {
		return fmt.Errorf("pnm: decoding png: %w", err)
	}
	b := src.Bounds()
	reset(b.Dx(), b.Dy())
	fill := lumaRows(src)
	luma := make([]uint16, b.Dx())
	for y := range b.Dy() {
		fill(b.Min.Y+y, luma)
		row(y, luma)
	}
	return nil
}

// lumaRows returns the loop that writes row y of src into luma as the
// value color.Gray16Model.Convert(src.At(x, y)) takes at each pixel. The
// image types png.Decode returns get loops over their Pix that apply the
// color's own RGBA conversion and the model's weights with nothing boxed;
// any other image goes through At and the model.
func lumaRows(src image.Image) func(y int, luma []uint16) {
	x0 := src.Bounds().Min.X
	switch m := src.(type) {
	case *image.Gray:
		return func(y int, luma []uint16) {
			pix := m.Pix[m.PixOffset(x0, y):]
			for x := range luma {
				luma[x] = uint16(pix[x]) * 0x101
			}
		}
	case *image.Gray16:
		return func(y int, luma []uint16) {
			pix := m.Pix[m.PixOffset(x0, y):]
			for x := range luma {
				luma[x] = uint16(pix[2*x])<<8 | uint16(pix[2*x+1])
			}
		}
	case *image.RGBA:
		return func(y int, luma []uint16) {
			pix := m.Pix[m.PixOffset(x0, y):]
			for x := range luma {
				p := pix[4*x : 4*x+3]
				luma[x] = gray16(uint32(p[0])*0x101, uint32(p[1])*0x101, uint32(p[2])*0x101)
			}
		}
	case *image.RGBA64:
		return func(y int, luma []uint16) {
			pix := m.Pix[m.PixOffset(x0, y):]
			for x := range luma {
				p := pix[8*x : 8*x+6]
				luma[x] = gray16(uint32(p[0])<<8|uint32(p[1]), uint32(p[2])<<8|uint32(p[3]), uint32(p[4])<<8|uint32(p[5]))
			}
		}
	case *image.NRGBA:
		return func(y int, luma []uint16) {
			pix := m.Pix[m.PixOffset(x0, y):]
			for x := range luma {
				p := pix[4*x : 4*x+4]
				a := uint32(p[3])
				luma[x] = gray16(uint32(p[0])*0x101*a/0xff, uint32(p[1])*0x101*a/0xff, uint32(p[2])*0x101*a/0xff)
			}
		}
	case *image.NRGBA64:
		return func(y int, luma []uint16) {
			pix := m.Pix[m.PixOffset(x0, y):]
			for x := range luma {
				p := pix[8*x : 8*x+8]
				a := uint32(p[6])<<8 | uint32(p[7])
				r, g, b := uint32(p[0])<<8|uint32(p[1]), uint32(p[2])<<8|uint32(p[3]), uint32(p[4])<<8|uint32(p[5])
				luma[x] = gray16(r*a/0xffff, g*a/0xffff, b*a/0xffff)
			}
		}
	case *image.Paletted:
		// A palette has at most 256 entries, and png.Decode's pixels index
		// only entries it holds.
		var pal [256]uint16
		for i, c := range m.Palette[:min(len(m.Palette), len(pal))] {
			pal[i] = color.Gray16Model.Convert(c).(color.Gray16).Y
		}
		return func(y int, luma []uint16) {
			pix := m.Pix[m.PixOffset(x0, y):]
			for x := range luma {
				luma[x] = pal[pix[x]]
			}
		}
	}
	return func(y int, luma []uint16) {
		for x := range luma {
			luma[x] = color.Gray16Model.Convert(src.At(x0+x, y)).(color.Gray16).Y
		}
	}
}

// gray16 is color.Gray16Model's weighting of alpha-premultiplied 16-bit
// channels (the JFIF coefficients 0.299, 0.587 and 0.114; the weights sum
// to 65536).
func gray16(r, g, b uint32) uint16 {
	return uint16((19595*r + 38470*g + 7471*b + 1<<15) >> 16)
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
