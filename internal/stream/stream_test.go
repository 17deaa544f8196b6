package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pnm"
	"repro/internal/stats"
	"repro/internal/stream"
)

// aremsp labels img in memory with the sequential pair-row algorithm, the
// reference the streamed labelings are compared against.
func aremsp(img *binimg.Image) (*binimg.LabelMap, int) {
	lm := &binimg.LabelMap{}
	n, _, _ := core.PAREMSP(context.Background(), img, lm, nil, core.Options{Threads: 1})
	return lm, n
}

// labelBands runs the band labeler over a PNM stream, spilling to spill,
// and decodes the CCL1 output. The header reader and the labeler may each
// reject the input; either error is returned.
func labelBands(r io.Reader, spill io.ReadWriteSeeker) (*binimg.LabelMap, int, error) {
	src, err := pnm.NewBandReader(r, 0.5)
	if err != nil {
		return nil, 0, err
	}
	var out bytes.Buffer
	res, err := stream.LabelBands(context.Background(), src, spill, &out, 0)
	if err != nil {
		return nil, 0, err
	}
	lm, n, err := stream.ReadLabels(&out)
	if err == nil && n != res.NumComponents {
		err = fmt.Errorf("returned %d components, header says %d", res.NumComponents, n)
	}
	return lm, n, err
}

// labelViaStream round-trips img through the PBM encoder, the band
// labeler (spilling to a real temp file), and the CCL1 decoder.
func labelViaStream(t *testing.T, img *binimg.Image) (*binimg.LabelMap, int) {
	t.Helper()
	var pbm bytes.Buffer
	if err := pnm.EncodePBM(&pbm, img, true); err != nil {
		t.Fatal(err)
	}
	spill, err := os.Create(filepath.Join(t.TempDir(), "spill"))
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	lm, n, err := labelBands(&pbm, spill)
	if err != nil {
		t.Fatal(err)
	}
	return lm, n
}

func TestStreamMatchesInMemory(t *testing.T) {
	for name, img := range map[string]*binimg.Image{
		"blobs":      dataset.Blobs(130, 97, 14, 2, 8, 3),
		"noise":      dataset.UniformNoise(257, 129, 0.5, 4),
		"serpentine": dataset.Serpentine(101, 77, 2, 3),
		"full": func() *binimg.Image {
			im := binimg.New(64, 64)
			im.Fill(1)
			return im
		}(),
		"empty":     binimg.New(64, 64),
		"narrow":    dataset.UniformNoise(1, 300, 0.5, 5),
		"flat":      dataset.UniformNoise(300, 1, 0.5, 6),
		"odd-width": dataset.UniformNoise(63, 41, 0.4, 7), // exercises P4 row padding
	} {
		img := img
		t.Run(name, func(t *testing.T) {
			lm, n := labelViaStream(t, img)
			ref, nRef := aremsp(img)
			if n != nRef {
				t.Fatalf("streamed %d components, in-memory %d", n, nRef)
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Fatal(err)
			}
			if err := stats.Validate(img, lm, n, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPropertyStreamMatchesInMemory(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(50), 1+rng.Intn(50)
		img := binimg.New(w, h)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(2))
		}
		var pbm bytes.Buffer
		if err := pnm.EncodePBM(&pbm, img, true); err != nil {
			return false
		}
		spill, err := os.CreateTemp("", "spill")
		if err != nil {
			return false
		}
		defer os.Remove(spill.Name())
		defer spill.Close()
		lm, n, err := labelBands(&pbm, spill)
		if err != nil {
			return false
		}
		ref, nRef := aremsp(img)
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRejectsBadInput(t *testing.T) {
	spillDir := t.TempDir()
	newSpill := func() *os.File {
		f, err := os.CreateTemp(spillDir, "spill")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	cases := map[string]string{
		"plain pbm":   "P1\n2 2\n1 0 0 1\n",
		"bad dim":     "P4\nxx 2\n",
		"huge dim":    "P4\n9999999 9999999\n",
		"truncated":   "P4\n16 4\n\x01\x02",
		"empty input": "",
	}
	for name, src := range cases {
		if _, _, err := labelBands(strings.NewReader(src), newSpill()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadLabelsRejectsBadStreams(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":        []byte("NOPE\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
		"truncated header": []byte("CCL1\x01\x00"),
		"truncated body": append([]byte("CCL1"),
			0x02, 0, 0, 0, 0x02, 0, 0, 0, 0x01, 0, 0, 0, // 2x2, 1 component
			0x01, 0, 0, 0), // only one label of four
	}
	for name, src := range cases {
		if _, _, err := stream.ReadLabels(bytes.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStreamHeaderComments(t *testing.T) {
	img := dataset.UniformNoise(19, 11, 0.5, 9)
	var pbm bytes.Buffer
	if err := pnm.EncodePBM(&pbm, img, true); err != nil {
		t.Fatal(err)
	}
	// Inject a comment line into the header.
	raw := pbm.Bytes()
	withComment := append([]byte("P4\n# generated by test\n"), raw[3:]...)
	spill, err := os.CreateTemp(t.TempDir(), "spill")
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	_, n, err := labelBands(bytes.NewReader(withComment), spill)
	if err != nil {
		t.Fatal(err)
	}
	_, nRef := aremsp(img)
	if n != nRef {
		t.Fatalf("commented header: %d components, want %d", n, nRef)
	}
}

func TestWriteLabelsRoundTrip(t *testing.T) {
	img := dataset.UniformNoise(61, 37, 0.4, 11)
	lm, n := aremsp(img)
	var buf bytes.Buffer
	if err := stream.WriteLabels(&buf, lm, n); err != nil {
		t.Fatal(err)
	}
	got, gotN, err := stream.ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != n {
		t.Fatalf("round trip reports %d components, want %d", gotN, n)
	}
	if got.Width != lm.Width || got.Height != lm.Height {
		t.Fatalf("round trip dims %dx%d, want %dx%d", got.Width, got.Height, lm.Width, lm.Height)
	}
	for i, v := range lm.L {
		if got.L[i] != v {
			t.Fatalf("label[%d] = %d, want %d", i, got.L[i], v)
		}
	}
}
