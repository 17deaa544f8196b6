// Gray-preserving and volumetric decoders for the extension workloads: the
// gray-level labeler consumes PGM/PNG rasters without binarization, and the
// 3D labeler consumes a stack of concatenated raw-PGM frames (multi-frame
// P5) as z-slices.

package pnm

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"

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
	rd, err := newReader(bufio.NewReader(r), "P2", "P5")
	if err != nil {
		return err
	}
	s := newGrayScale(rd.maxVal)
	pix, _, err := readRows(rd, dst.Pix[:0], rd.h, rd.w, rd.w*rd.h, func(px []uint8, row []byte) int {
		s.row(px, row)
		return 0
	})
	if err != nil {
		return err
	}
	dst.Width, dst.Height, dst.Pix = rd.w, rd.h, pix
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
	return decodePNGLuma(r, dst.Reset, func(y int, luma []uint16) {
		row := dst.Pix[y*dst.Width : (y+1)*dst.Width]
		for x, v := range luma {
			row[x] = uint8(v >> 8)
		}
	})
}

// DecodeVolumeInto reads a multi-frame raw-PGM stream — concatenated P5
// graymaps, one per z-slice, all with identical dimensions — into a caller-
// provided volume (buffer reused when large enough, grown with the rows
// read). One reader reads every frame, re-reading its header in place, and
// each frame is binarized by the same im2bw table as DecodeInto, built for
// its maxval: luminance fraction strictly greater than level becomes an
// object voxel. The frame count becomes the volume's depth; at least one
// frame is required.
func DecodeVolumeInto(r io.Reader, level float64, dst *vol3d.Volume) error {
	fr, err := newReader(bufio.NewReader(r), "P5")
	if err != nil {
		return fmt.Errorf("pnm: frame 0: %w", err)
	}
	w, h := fr.w, fr.h
	vox := dst.Vox[:0]
	d := 0
	for {
		t := newThreshold(level, fr.maxVal)
		// The depth is unknown until the stream ends, so the volume grows
		// without a limit.
		if vox, _, err = readRows(fr, vox, h, w, math.MaxInt, t.row); err != nil {
			return fmt.Errorf("pnm: frame %d: %w", d, err)
		}
		d++
		err = fr.header("P5")
		if errors.Is(err, errNoImage) {
			break
		}
		if err != nil {
			return fmt.Errorf("pnm: frame %d: %w", d, err)
		}
		if fr.w != w || fr.h != h {
			return fmt.Errorf("pnm: frame %d is %dx%d, want %dx%d (all z-slices must share dimensions)", d, fr.w, fr.h, w, h)
		}
	}
	dst.W, dst.H, dst.D, dst.Vox = w, h, d, vox
	return nil
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
