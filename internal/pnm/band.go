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
// P4 rows are already bit-packed and are reordered packed-to-packed; P5 rows
// are binarized by the im2bw table the whole-image decoders use (luminance
// fraction strictly greater than level becomes foreground), then packed.
type BandReader struct {
	br     *bufio.Reader
	width  int
	height int
	raw4   bool      // true = P4, false = P5
	thresh threshold // P5 only
	y      int       // rows already delivered
	rowBuf []byte
	pix    []uint8 // P5 only: one binarized row before packing
}

// NewBandReader reads the PNM header from r and prepares incremental row
// decoding. Only the raw formats are supported: band decoding needs a known
// bytes-per-row layout, which the plain (ASCII) formats do not have.
func NewBandReader(r io.Reader, level float64) (*BandReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := readToken(br)
	if err != nil {
		return nil, fmt.Errorf("pnm: reading magic: %w", err)
	}
	b := &BandReader{br: br}
	switch magic {
	case "P4":
		b.raw4 = true
	case "P5":
	default:
		return nil, fmt.Errorf("pnm: band reader wants raw PBM (P4) or raw PGM (P5), got %q", magic)
	}
	b.width, b.height, err = readDims(br)
	if err != nil {
		return nil, err
	}
	if b.raw4 {
		b.rowBuf = make([]byte, (b.width+7)/8)
		return b, nil
	}
	maxVal, err := readMaxVal(br)
	if err != nil {
		return nil, err
	}
	b.thresh = newThreshold(level, maxVal)
	b.rowBuf = make([]byte, p5RowBytes(b.width, maxVal))
	b.pix = make([]uint8, b.width)
	return b, nil
}

// Width returns the image width from the header.
func (b *BandReader) Width() int { return b.width }

// Height returns the image height from the header.
func (b *BandReader) Height() int { return b.height }

// ReadBand decodes the next band of up to maxRows rows into dst and returns
// the number of rows delivered. One bitmap can be reused for every band:
// every word is written, so dst is not cleared first, and its buffer grows
// with the rows read. After the final row it returns (0, io.EOF).
func (b *BandReader) ReadBand(dst *binimg.Bitmap, maxRows int) (int, error) {
	if maxRows <= 0 {
		return 0, fmt.Errorf("pnm: ReadBand maxRows %d, want >= 1", maxRows)
	}
	rows := b.height - b.y
	if rows == 0 {
		return 0, io.EOF
	}
	if rows > maxRows {
		rows = maxRows
	}
	bm := binimg.Bitmap{Width: b.width, Height: rows, WordsPerRow: (b.width + 63) / 64, Words: dst.Words[:0]}
	wpr, tail := bm.WordsPerRow, bm.TailMask()
	for i := 0; i < rows; i++ {
		if _, err := io.ReadFull(b.br, b.rowBuf); err != nil {
			return 0, fmt.Errorf("pnm: %s row %d: %w", b.format(), b.y+i, err)
		}
		bm.Words = growRows(bm.Words, (i+1)*wpr, rows*wpr)
		words := bm.Words[i*wpr : (i+1)*wpr]
		if b.raw4 {
			packP4Row(words, b.rowBuf, tail)
		} else {
			b.thresh.row(b.pix, b.rowBuf)
			packBits(words, b.pix)
		}
	}
	*dst = bm
	b.y += rows
	return rows, nil
}

func (b *BandReader) format() string {
	if b.raw4 {
		return "P4"
	}
	return "P5"
}

// NewBandReaderBytes is NewBandReader over an in-memory encoding; tests and
// benchmarks stream generated images this way.
func NewBandReaderBytes(data []byte, level float64) (*BandReader, error) {
	return NewBandReader(bytes.NewReader(data), level)
}
