package pnm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/binimg"
)

// BandReader decodes a raw PBM (P4) or raw PGM (P5) stream incrementally, a
// fixed number of rows at a time, into a bit-packed bitmap. It is the ingest
// side of the out-of-core band labeler (internal/band): only one band of
// pixels is ever resident, so the image height does not bound memory.
//
// It reads through the package's one header parser and row loop, and
// DecodeBitmapInto is its loop run over every row of a whole image. P4 rows
// are already bit-packed and are reordered packed-to-packed; P5 rows are
// binarized by the im2bw table the whole-image decoders use (luminance
// fraction strictly greater than level becomes foreground), then packed.
type BandReader struct {
	r      *reader
	thresh *threshold // P5 only
	pix    []uint8    // P5 only: one binarized row before packing
}

// NewBandReader reads the PNM header from r and prepares incremental row
// decoding. Only the raw formats are accepted, as the stats endpoint and
// ccstream document: band decoding exists for rasters too large to hold,
// and plain PBM spends two text bytes on every one-bit pixel.
func NewBandReader(r io.Reader, level float64) (*BandReader, error) {
	return newBandReader(bufio.NewReaderSize(r, 1<<16), level, "P4", "P5")
}

// newBandReader reads a header whose magic is one of formats. The reader
// hands out plain rows in the raw layout, so P1 rows pack like P4 rows and
// P2 rows binarize like P5 rows.
func newBandReader(br *bufio.Reader, level float64, formats ...string) (*BandReader, error) {
	rd, err := newReader(br, formats...)
	if err != nil {
		return nil, err
	}
	b := &BandReader{r: rd}
	if rd.pgm() {
		t := newThreshold(level, rd.maxVal)
		b.thresh, b.pix = &t, make([]uint8, rd.w)
	}
	return b, nil
}

// Width returns the image width from the header.
func (b *BandReader) Width() int { return b.r.w }

// Height returns the image height from the header.
func (b *BandReader) Height() int { return b.r.h }

// ReadBand decodes the next band of up to maxRows rows into dst and returns
// the number of rows delivered. One bitmap can be reused for every band:
// every word is written, so dst is not cleared first, and its buffer grows
// with the rows read. After the final row it returns (0, io.EOF).
func (b *BandReader) ReadBand(dst *binimg.Bitmap, maxRows int) (int, error) {
	if maxRows <= 0 {
		return 0, fmt.Errorf("pnm: ReadBand maxRows %d, want >= 1", maxRows)
	}
	rows := min(b.r.h-b.r.y, maxRows)
	if rows == 0 {
		return 0, io.EOF
	}
	if _, err := b.band(dst, rows); err != nil {
		return 0, err
	}
	return rows, nil
}

// band reads the next rows rows into dst as packed words and returns their
// foreground count.
func (b *BandReader) band(dst *binimg.Bitmap, rows int) (int, error) {
	bm := binimg.Bitmap{Width: b.r.w, Height: rows, WordsPerRow: (b.r.w + 63) / 64}
	tail := bm.TailMask()
	words, fg, err := readRows(b.r, dst.Words[:0], rows, bm.WordsPerRow, rows*bm.WordsPerRow, func(words []uint64, row []byte) int {
		if b.thresh == nil {
			packP4Row(words, row, tail)
			n := 0
			for _, w := range words {
				n += bits.OnesCount64(w)
			}
			return n
		}
		n := b.thresh.row(b.pix, row)
		packBits(words, b.pix)
		return n
	})
	if err != nil {
		return 0, err
	}
	bm.Words = words
	*dst = bm
	return fg, nil
}

// DecodePBMBitmapInto decodes a raw PBM (P4) stream directly into a packed
// 1-bit-per-pixel bitmap whose word buffer is reused when large enough. P4
// rows are already bit-packed (MSB first within each byte), so each row is
// copied packed-to-packed, eight bytes to one LSB-first word, and its tail
// padding bits are masked to preserve the Bitmap invariant, instead of being
// unpacked to a byte per pixel. It is DecodeBitmapInto for P4 alone. Every
// word is written, so dst is not cleared first, and its buffer grows with
// the rows read. On error the contents of dst are unspecified.
func DecodePBMBitmapInto(r io.Reader, dst *binimg.Bitmap) error {
	_, err := decodeBitmap(r, 0, dst, "P4")
	return err
}

// DecodeBitmapInto is DecodeIntoCount into a packed bitmap: a PBM (P1/P4)
// or PGM (P2/P5) stream, grayscale binarized at level by the same im2bw
// table, straight into the 1-bit-per-pixel raster the run kernel labels,
// with no byte raster in between. It is the BandReader's row loop run over
// every row, and returns the foreground count it wrote. Every word is
// written, so dst is not cleared first, and its buffer grows with the rows
// read. On error the contents of dst are unspecified.
func DecodeBitmapInto(r io.Reader, level float64, dst *binimg.Bitmap) (int, error) {
	return decodeBitmap(r, level, dst, "P1", "P2", "P4", "P5")
}

func decodeBitmap(r io.Reader, level float64, dst *binimg.Bitmap, formats ...string) (int, error) {
	b, err := newBandReader(bufio.NewReader(r), level, formats...)
	if err != nil {
		return 0, err
	}
	return b.band(dst, b.r.h)
}

// NewBandReaderBytes is NewBandReader over an in-memory encoding; tests and
// benchmarks stream generated images this way.
func NewBandReaderBytes(data []byte, level float64) (*BandReader, error) {
	return NewBandReader(bytes.NewReader(data), level)
}
