// Package stream labels images too large to hold in memory as pixel
// rasters — the regime of the paper's NLCD experiments (up to 465.2 MB of
// binary raster) on machines without the paper's 32 GB node — and owns the
// CCL1 label-stream format those labelings are exchanged in.
//
// LabelBands (the cmd/ccstream path) drives the fixed-memory band labeler
// of internal/band: resident memory is O(one band), independent of the
// image height, and per-component statistics come back for free.
//
// The output format ("CCL1") is a little-endian header {magic, width,
// height, components} followed by width*height int32 labels in raster
// order; ReadLabels decodes it back into a binimg.LabelMap.
package stream

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/band"
	"repro/internal/binimg"
	"repro/internal/poll"
)

// Magic identifies the CCL1 label-stream format.
const Magic = "CCL1"

// Label aliases the repository-wide label type.
type Label = binimg.Label

// LabelBands labels the image delivered by src with the fixed-memory band
// labeler (internal/band) and writes a CCL1 label stream to out. During the
// single streaming pass each row's provisional global component ids spill to
// spill (written front to back, one int32 per pixel); once the stream
// completes — and the final component numbering is known — the spill is
// re-read sequentially and rewritten as final labels. Resident memory is
// O(one band + component table): the equivalence state resets every band
// and only the seam runs cross band boundaries.
//
// bandRows selects the band height (0 = band.DefaultBandRows). Returns the
// band labeler's result: component count plus per-component statistics.
//
// ctx cancels the labeling cooperatively: the band pass checks it between
// bands and the rewrite pass every 64 rows. Pass context.Background() (or
// nil) to never cancel.
func LabelBands(ctx context.Context, src band.Source, spill io.ReadWriteSeeker, out io.Writer, bandRows int) (*band.Result, error) {
	done := poll.Done(ctx)
	w, h := src.Width(), src.Height()
	sw := bufio.NewWriterSize(spill, 1<<16)
	rowBytes := make([]byte, 4*w)
	emit := func(y int, runs []binimg.Run, resolve func(Label) Label) error {
		clear(rowBytes)
		for _, r := range runs {
			id := uint32(resolve(r.Label))
			for x := int(r.Start); x < int(r.End); x++ {
				binary.LittleEndian.PutUint32(rowBytes[4*x:], id)
			}
		}
		if _, err := sw.Write(rowBytes); err != nil {
			return fmt.Errorf("stream: spilling row %d: %w", y, err)
		}
		return nil
	}
	res, err := band.Stream(src, band.Options{BandRows: bandRows, EmitRow: emit, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	if err := sw.Flush(); err != nil {
		return nil, fmt.Errorf("stream: flushing spill: %w", err)
	}
	if _, err := spill.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("stream: rewinding spill: %w", err)
	}
	sr := bufio.NewReaderSize(spill, 1<<16)
	bw := bufio.NewWriterSize(out, 1<<16)
	if err := writeHeader(bw, w, h, res.NumComponents); err != nil {
		return nil, err
	}
	for y := 0; y < h; y++ {
		if y%poll.Rows == 0 && poll.Stopped(done) {
			return nil, poll.Err(ctx)
		}
		if _, err := io.ReadFull(sr, rowBytes); err != nil {
			return nil, fmt.Errorf("stream: reading spill row %d: %w", y, err)
		}
		for x := 0; x < w; x++ {
			prov := Label(binary.LittleEndian.Uint32(rowBytes[4*x:]))
			binary.LittleEndian.PutUint32(rowBytes[4*x:], uint32(res.FinalLabel(prov)))
		}
		if _, err := bw.Write(rowBytes); err != nil {
			return nil, fmt.Errorf("stream: writing row %d: %w", y, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return res, nil
}

func writeHeader(w io.Writer, width, height, components int) error {
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(width))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(height))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(components))
	_, err := w.Write(hdr)
	return err
}

// WriteLabels encodes an in-memory label map as a CCL1 label stream with
// component count n in the header — the same format LabelBands produces, so
// services can hand in-memory labelings to consumers of the streaming
// labeler's output.
func WriteLabels(out io.Writer, lm *binimg.LabelMap, n int) error {
	bw := bufio.NewWriterSize(out, 1<<16)
	if err := writeHeader(bw, lm.Width, lm.Height, n); err != nil {
		return err
	}
	rowBytes := make([]byte, 4*lm.Width)
	for y := 0; y < lm.Height; y++ {
		row := lm.L[y*lm.Width : (y+1)*lm.Width]
		for x, v := range row {
			binary.LittleEndian.PutUint32(rowBytes[4*x:], uint32(v))
		}
		if _, err := bw.Write(rowBytes); err != nil {
			return fmt.Errorf("stream: writing row %d: %w", y, err)
		}
	}
	return bw.Flush()
}

// ReadLabels decodes a CCL1 label stream into a label map, returning the map
// and the component count from the header. The map grows with the rows
// read, so a header alone cannot reserve the width*height labels it names.
func ReadLabels(r io.Reader) (*binimg.LabelMap, int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, fmt.Errorf("stream: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, 0, fmt.Errorf("stream: bad magic %q", magic)
	}
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, 0, fmt.Errorf("stream: reading header: %w", err)
	}
	w := int(binary.LittleEndian.Uint32(hdr[0:]))
	h := int(binary.LittleEndian.Uint32(hdr[4:]))
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	if w > binimg.MaxDimension || h > binimg.MaxDimension {
		return nil, 0, fmt.Errorf("stream: dimensions %dx%d too large", w, h)
	}
	lm := &binimg.LabelMap{Width: w, Height: h}
	buf := make([]byte, 4*w)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, 0, fmt.Errorf("stream: reading row %d: %w", y, err)
		}
		for x := 0; x < w; x++ {
			lm.L = append(lm.L, Label(binary.LittleEndian.Uint32(buf[4*x:])))
		}
	}
	return lm, n, nil
}
