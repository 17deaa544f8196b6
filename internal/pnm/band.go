package pnm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/binimg"
)

// BandReader decodes a raw PBM (P4) or raw PGM (P5) stream incrementally, a
// fixed number of rows at a time, into a bit-packed bitmap. It is the ingest
// side of the out-of-core band labeler (internal/band): only one band of
// pixels is ever resident, so the image height does not bound memory.
//
// It reads through the package's one header parser and row loop, and
// DecodePBMBitmapInto is its loop run over every row of a P4 image. P4 rows
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
	rd, err := newReader(bufio.NewReaderSize(r, 1<<16), "P4", "P5")
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
	if err := b.band(dst, rows); err != nil {
		return 0, err
	}
	return rows, nil
}

// band reads the next rows rows into dst as packed words.
func (b *BandReader) band(dst *binimg.Bitmap, rows int) error {
	bm := binimg.Bitmap{Width: b.r.w, Height: rows, WordsPerRow: (b.r.w + 63) / 64}
	tail := bm.TailMask()
	words, _, err := readRows(b.r, dst.Words[:0], rows, bm.WordsPerRow, rows*bm.WordsPerRow, func(words []uint64, row []byte) int {
		if b.thresh == nil {
			packP4Row(words, row, tail)
		} else {
			b.thresh.row(b.pix, row)
			packBits(words, b.pix)
		}
		return 0
	})
	if err != nil {
		return err
	}
	bm.Words = words
	*dst = bm
	return nil
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
	rd, err := newReader(bufio.NewReader(r), "P4")
	if err != nil {
		return err
	}
	return (&BandReader{r: rd}).band(dst, rd.h)
}

// NewBandReaderBytes is NewBandReader over an in-memory encoding; tests and
// benchmarks stream generated images this way.
func NewBandReaderBytes(data []byte, level float64) (*BandReader, error) {
	return NewBandReader(bytes.NewReader(data), level)
}
