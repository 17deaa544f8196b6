// Gray-preserving and volumetric decoders for the extension workloads: the
// gray-level labeler consumes PGM/PNG rasters without binarization, and the
// 3D labeler consumes a stack of concatenated raw-PGM frames (multi-frame
// P5) as z-slices.

package pnm

import (
	"bufio"
	"fmt"
	"image/color"
	"image/png"
	"io"
	"math"
	"strconv"

	"repro/internal/grayccl"
	"repro/internal/vol3d"
)

// DecodeGrayInto reads a PGM (P2 plain / P5 raw) stream into a caller-
// provided gray image whose pixel buffer is reused when large enough,
// preserving gray values instead of binarizing. Samples are scaled to the
// full 8-bit range, v*255/maxval (through a 256-entry table for one-byte
// samples), so 16-bit graymaps lose precision but keep their relative
// ordering. Every pixel is written, so dst is not cleared first, and its
// buffer grows with the rows read. On error the contents of dst are
// unspecified.
func DecodeGrayInto(r io.Reader, dst *grayccl.Image) error {
	br := bufio.NewReader(r)
	magic, err := readToken(br)
	if err != nil {
		return fmt.Errorf("pnm: reading magic: %w", err)
	}
	if magic != "P2" && magic != "P5" {
		return fmt.Errorf("pnm: gray decode wants PGM magic P2 or P5, got %q", magic)
	}
	w, h, err := readDims(br)
	if err != nil {
		return err
	}
	maxVal, err := readMaxVal(br)
	if err != nil {
		return err
	}
	pix := dst.Pix[:0]
	if magic == "P5" {
		s := newGrayScale(maxVal)
		rowBuf := make([]byte, p5RowBytes(w, maxVal))
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, rowBuf); err != nil {
				return fmt.Errorf("pnm: P5 row %d: %w", y, err)
			}
			pix = growRows(pix, (y+1)*w, w*h)
			s.row(pix[y*w:], rowBuf)
		}
	} else {
		for y := 0; y < h; y++ {
			pix = growRows(pix, (y+1)*w, w*h)
			row := pix[y*w:]
			for x := range row {
				v, err := readSample(br, maxVal, y*w+x)
				if err != nil {
					return err
				}
				row[x] = uint8(v * 255 / maxVal)
			}
		}
	}
	dst.Width, dst.Height, dst.Pix = w, h, pix
	return nil
}

// grayScale maps raw P5 samples onto the 0..255 gray domain, v*255/maxVal.
type grayScale struct {
	maxVal int
	val    [256]uint8 // one-byte samples: val[v] is v's gray value
}

func newGrayScale(maxVal int) grayScale {
	s := grayScale{maxVal: maxVal}
	if maxVal <= 255 {
		for v := range s.val {
			s.val[v] = uint8(v * 255 / maxVal)
		}
	}
	return s
}

// row scales one raw P5 row, src, into dst. Two-byte samples keep the
// per-sample formula: a 65,536-entry table would cost more to build than a
// small image takes to decode.
func (s *grayScale) row(dst []uint8, src []byte) {
	if s.maxVal <= 255 {
		for x, v := range src[:len(dst)] {
			dst[x] = s.val[v]
		}
		return
	}
	for x := range dst {
		dst[x] = uint8((int(src[2*x])<<8 | int(src[2*x+1])) * 255 / s.maxVal)
	}
}

// DecodePNGGrayInto reads a PNG stream into a caller-provided gray image
// (reshaped with Reset), taking each pixel's Rec. 601 luminance scaled to
// 8 bits — the gray analogue of DecodePNGInto.
func DecodePNGGrayInto(r io.Reader, dst *grayccl.Image) error {
	src, err := png.Decode(r)
	if err != nil {
		return fmt.Errorf("pnm: decoding png: %w", err)
	}
	b := src.Bounds()
	dst.Reset(b.Dx(), b.Dy())
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			g := color.Gray16Model.Convert(src.At(x, y)).(color.Gray16)
			dst.Pix[(y-b.Min.Y)*dst.Width+(x-b.Min.X)] = uint8(g.Y >> 8)
		}
	}
	return nil
}

// DecodeVolumeInto reads a multi-frame raw-PGM stream — concatenated P5
// graymaps, one per z-slice, all with identical dimensions — into a caller-
// provided volume (buffer reused when large enough, grown with the rows
// read). Each frame is binarized by the same im2bw table as DecodeInto:
// luminance fraction strictly greater than level becomes an object voxel.
// The frame count becomes the volume's depth; at least one frame is
// required.
func DecodeVolumeInto(r io.Reader, level float64, dst *vol3d.Volume) error {
	br := bufio.NewReader(r)
	w, h, d := 0, 0, 0
	vox := dst.Vox[:0]
	var buf []byte
	for {
		magic, err := readToken(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("pnm: frame %d: reading magic: %w", d, err)
		}
		if magic != "P5" {
			return fmt.Errorf("pnm: volume frames must be raw PGM (P5), frame %d has magic %q", d, magic)
		}
		fw, fh, err := readDims(br)
		if err != nil {
			return fmt.Errorf("pnm: frame %d: %w", d, err)
		}
		maxVal, err := readMaxVal(br)
		if err != nil {
			return fmt.Errorf("pnm: frame %d: %w", d, err)
		}
		if d == 0 {
			w, h = fw, fh
		} else if fw != w || fh != h {
			return fmt.Errorf("pnm: frame %d is %dx%d, want %dx%d (all z-slices must share dimensions)", d, fw, fh, w, h)
		}
		t := newThreshold(level, maxVal)
		if n := p5RowBytes(w, maxVal); cap(buf) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return fmt.Errorf("pnm: frame %d row %d: %w", d, y, err)
			}
			n := len(vox)
			vox = growRows(vox, n+w, math.MaxInt)
			t.row(vox[n:], buf)
		}
		d++
	}
	if d == 0 {
		return fmt.Errorf("pnm: volume stream holds no P5 frames")
	}
	dst.W, dst.H, dst.D, dst.Vox = w, h, d, vox
	return nil
}

// readMaxVal reads and validates the PGM maxval token.
func readMaxVal(br *bufio.Reader) (int, error) {
	maxTok, err := readToken(br)
	if err != nil {
		return 0, fmt.Errorf("pnm: reading maxval: %w", err)
	}
	maxVal, err := strconv.Atoi(maxTok)
	if err != nil || maxVal < 1 || maxVal > 65535 {
		return 0, fmt.Errorf("pnm: invalid maxval %q", maxTok)
	}
	return maxVal, nil
}

// p5RowBytes is the size of one raw P5 row: one byte per sample up to
// maxVal 255, two (big-endian) above.
func p5RowBytes(w, maxVal int) int {
	if maxVal > 255 {
		return 2 * w
	}
	return w
}

// EncodeGrayPGM writes a gray image as a raw P5 graymap — the inverse of
// DecodeGrayInto, used by tests and tools to build gray request bodies.
func EncodeGrayPGM(w io.Writer, im *grayccl.Image) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", im.Width, im.Height)
	if _, err := bw.Write(im.Pix); err != nil {
		return err
	}
	return bw.Flush()
}
