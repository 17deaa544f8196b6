package pnm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/binimg"
)

// errNoImage is the header error for a stream that holds nothing but
// whitespace and comments; DecodeVolumeInto reads it as the end of its
// frames.
var errNoImage = errors.New("pnm: no image: the stream ends before a magic number")

// reader is the one Netpbm header parser behind every decoder. It reads the
// magic, the dimensions and (for PGM) the maxval once, then hands out the
// raster a row at a time in the raw layout: P4's packed bits for P1 and P4,
// P5's samples for P2 and P5. A plain row's tokens are re-encoded as the raw
// row they stand for, so the raw row tables serve both forms. The header is
// parsed before anything the size of the raster is allocated. A multi-frame
// stream re-reads each frame's header into the same reader, which keeps its
// row and token buffers.
type reader struct {
	br     *bufio.Reader
	magic  string
	w, h   int
	maxVal int    // PGM only
	y      int    // rows read
	row    []byte // the last row read, in the raw layout
	tok    []byte // the last token read
}

// newReader reads a header whose magic is one of formats and sizes the row
// buffer for it.
func newReader(br *bufio.Reader, formats ...string) (*reader, error) {
	r := &reader{br: br}
	if err := r.header(formats...); err != nil {
		return nil, err
	}
	return r, nil
}

// header reads the next header, whose magic must be one of formats, and
// sizes the row buffer for it, reusing the last frame's when it is large
// enough. A stream that ends before a magic is errNoImage.
func (r *reader) header(formats ...string) error {
	magic, err := r.token()
	if err == io.EOF {
		return errNoImage
	}
	if err != nil {
		return fmt.Errorf("pnm: reading magic: %w", err)
	}
	i := slices.Index(formats, string(magic))
	if i < 0 {
		return fmt.Errorf("pnm: unsupported magic %q (want %s)", magic, strings.Join(formats, " or "))
	}
	r.magic, r.maxVal, r.y = formats[i], 0, 0
	if r.w, r.h, err = r.dims(); err != nil {
		return err
	}
	n := (r.w + 7) / 8
	if r.pgm() {
		if r.maxVal, err = r.number("maxval", 1, 65535); err != nil {
			return err
		}
		n = r.w
		if r.maxVal > 255 {
			n = 2 * r.w // big-endian samples
		}
	}
	r.row = slices.Grow(r.row[:0], n)[:n]
	return nil
}

// pgm reports whether the rows hold samples (P2, P5) rather than bits.
func (r *reader) pgm() bool { return r.magic == "P2" || r.magic == "P5" }

// next reads the next row into r.row.
func (r *reader) next() error {
	i := r.y * r.w // the row's first pixel, for error messages
	switch r.magic {
	case "P1":
		clear(r.row)
		for x := 0; x < r.w; x++ {
			tok, err := r.token()
			if err != nil {
				return fmt.Errorf("pnm: P1 pixel %d: %w", i+x, err)
			}
			if string(tok) != "0" && string(tok) != "1" {
				return fmt.Errorf("pnm: P1 pixel %d: invalid token %q", i+x, tok)
			}
			if tok[0] == '1' {
				r.row[x/8] |= 0x80 >> (x % 8)
			}
		}
	case "P2":
		for x := 0; x < r.w; x++ {
			v, err := r.sample(i + x)
			if err != nil {
				return err
			}
			if r.maxVal > 255 {
				binary.BigEndian.PutUint16(r.row[2*x:], uint16(v))
			} else {
				r.row[x] = byte(v)
			}
		}
	default:
		// token consumed the single whitespace byte after the header,
		// so the raw rows start at once.
		if _, err := io.ReadFull(r.br, r.row); err != nil {
			return fmt.Errorf("pnm: %s row %d: %w", r.magic, r.y, err)
		}
	}
	r.y++
	return nil
}

// readRows is the one row loop: it reads n more rows from r onto the end of
// buf, per elements a row, converting each raw row with conv, which returns
// the row's foreground count. buf grows with the rows read, up to limit
// elements. It returns the grown buffer and the summed count.
func readRows[T any](r *reader, buf []T, n, per, limit int, conv func(dst []T, row []byte) int) ([]T, int, error) {
	fg := 0
	for range n {
		if err := r.next(); err != nil {
			return nil, 0, err
		}
		end := len(buf) + per
		buf = growRows(buf, end, limit)
		fg += conv(buf[end-per:], r.row)
	}
	return buf, fg, nil
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

// dims reads and validates the width and height tokens.
func (r *reader) dims() (int, int, error) {
	w, err := r.number("width", 0, binimg.MaxDimension)
	if err != nil {
		return 0, 0, err
	}
	h, err := r.number("height", 0, binimg.MaxDimension)
	if err != nil {
		return 0, 0, err
	}
	return w, h, nil
}

// number reads the header token name, which must be an integer in
// [lo, hi].
func (r *reader) number(name string, lo, hi int) (int, error) {
	tok, err := r.token()
	if err != nil {
		return 0, fmt.Errorf("pnm: reading %s: %w", name, err)
	}
	v, err := strconv.Atoi(string(tok))
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("pnm: invalid %s %q", name, tok)
	}
	return v, nil
}

// sample reads plain-PGM (P2) sample i and checks it against maxVal.
func (r *reader) sample(i int) (int, error) {
	tok, err := r.token()
	if err != nil {
		return 0, fmt.Errorf("pnm: P2 pixel %d: %w", i, err)
	}
	v, err := strconv.Atoi(string(tok))
	if err != nil || v < 0 || v > r.maxVal {
		return 0, fmt.Errorf("pnm: P2 pixel %d: invalid value %q", i, tok)
	}
	return v, nil
}

// token returns the next whitespace-delimited token, skipping '#' comments
// (which run to end of line), per the Netpbm grammar. The token is read
// into r.tok, so it is valid until the next call.
func (r *reader) token() ([]byte, error) {
	r.tok = r.tok[:0]
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			if err == io.EOF && len(r.tok) > 0 {
				return r.tok, nil
			}
			return nil, err
		}
		switch {
		case b == '#' && len(r.tok) == 0:
			for b != '\n' {
				if b, err = r.br.ReadByte(); err != nil {
					return nil, err
				}
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(r.tok) > 0 {
				return r.tok, nil
			}
		default:
			r.tok = append(r.tok, b)
		}
	}
}
