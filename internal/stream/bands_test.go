package stream_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pnm"
	"repro/internal/stats"
	"repro/internal/stream"
)

// memSeeker is an in-memory io.ReadWriteSeeker standing in for the spill
// file.
type memSeeker struct {
	buf []byte
	off int
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if m.off+len(p) > len(m.buf) {
		m.buf = append(m.buf[:m.off], p...)
	} else {
		copy(m.buf[m.off:], p)
	}
	m.off += len(p)
	return len(p), nil
}

func (m *memSeeker) Read(p []byte) (int, error) {
	n := copy(p, m.buf[m.off:])
	m.off += n
	return n, nil
}

func (m *memSeeker) Seek(off int64, whence int) (int64, error) {
	m.off = int(off)
	return off, nil
}

// TestLabelBandsMatchesInMemory runs the band-streaming CCL1 pipeline over
// generated images at seam-stressing band heights and checks the decoded
// label stream against an in-memory labeling: same partition (up to
// renumbering), consecutive final labels, and matching component counts.
func TestLabelBandsMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		w, h int
		d    float64
	}{
		{"noise_mid", 100, 70, 0.5},
		{"noise_sparse", 64, 64, 0.05},
		{"noise_dense", 65, 33, 0.95},
		{"one_row", 90, 1, 0.5},
		{"one_col", 1, 90, 0.5},
	} {
		img := dataset.UniformNoise(tc.w, tc.h, tc.d, 42)
		var pbm bytes.Buffer
		if err := pnm.EncodePBM(&pbm, img, true); err != nil {
			t.Fatal(err)
		}
		for _, bandRows := range []int{1, 3, 16, 0} {
			src, err := pnm.NewBandReaderBytes(pbm.Bytes(), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res, err := stream.LabelBands(context.Background(), src, &memSeeker{}, &out, bandRows)
			if err != nil {
				t.Fatalf("%s/band%d: %v", tc.name, bandRows, err)
			}
			lm, n, err := stream.ReadLabels(&out)
			if err != nil {
				t.Fatalf("%s/band%d: decoding output: %v", tc.name, bandRows, err)
			}
			if n != res.NumComponents {
				t.Fatalf("%s/band%d: header claims %d components, result %d", tc.name, bandRows, n, res.NumComponents)
			}
			if err := stats.Validate(img, lm, n, true); err != nil {
				t.Fatalf("%s/band%d: invalid labeling: %v", tc.name, bandRows, err)
			}
			want, wn := aremsp(img)
			if wn != n {
				t.Fatalf("%s/band%d: %d components, in-memory found %d", tc.name, bandRows, n, wn)
			}
			if err := stats.Equivalent(lm, want); err != nil {
				t.Fatalf("%s/band%d: partition differs: %v", tc.name, bandRows, err)
			}
		}
	}
}
