package service

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
	"repro/internal/pnm"
)

// phasesField matches a JSON body's phase times, which differ run to run.
var phasesField = regexp.MustCompile(`"phases":\{[^}]*\},?`)

// TestUnpinnedMatchesPAREMSP: an unpinned binary request decodes packed and
// runs the run kernel, and must answer byte for byte what ?alg=paremsp
// answers (JSON phases aside) for every binary codec, every response
// format, unpinned and pinned thread counts, and a labels job's result in
// every format.
func TestUnpinnedMatchesPAREMSP(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{TTL: time.Hour})
	rng := rand.New(rand.NewSource(23))
	const w, h = 53, 41 // rows end mid-byte in P4; odd height leaves a lone last row
	gray := image.NewGray(image.Rect(0, 0, w, h))
	rng.Read(gray.Pix)
	rgba := image.NewNRGBA(image.Rect(0, 0, w, h))
	rng.Read(rgba.Pix) // every alpha from 0 to opaque
	img := paremsp.NewImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	encode := func(f func(*bytes.Buffer) error) []byte {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	p2 := encode(func(b *bytes.Buffer) error {
		fmt.Fprintf(b, "P2\n%d %d\n255\n", w, h)
		for _, v := range gray.Pix {
			fmt.Fprintf(b, "%d\n", v)
		}
		return nil
	})
	p5 := encode(func(b *bytes.Buffer) error {
		fmt.Fprintf(b, "P5\n%d %d\n255\n", w, h)
		_, err := b.Write(gray.Pix)
		return err
	})
	bodies := []struct {
		name, ct, query string
		body            []byte
	}{
		{"P1", ctPBM, "", encode(func(b *bytes.Buffer) error { return pnm.EncodePBM(b, img, false) })},
		{"P2", ctPGM, "level=0.35&", p2},
		{"P4", ctPBM, "", pbmBody(t, img)},
		{"P5", ctPGM, "level=0.35&", p5},
		{"gray-PNG", ctPNG, "", encode(func(b *bytes.Buffer) error { return png.Encode(b, gray) })},
		{"RGBA-PNG", ctPNG, "level=0.3&", encode(func(b *bytes.Buffer) error { return png.Encode(b, rgba) })},
	}
	formats := []struct{ name, query, accept string }{
		{"json", "", ctJSON},
		{"json-count", "components=false&", ctJSON},
		{"ccl1", "", ctCCL},
		{"pgm", "", ctPGM},
		{"png", "", ctPNG},
		{"contours", "contours=true&", ctJSON},
	}
	read := func(t *testing.T, resp *http.Response) []byte {
		t.Helper()
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v: %s", resp.StatusCode, err, raw)
		}
		return phasesField.ReplaceAll(raw, nil)
	}
	same := func(t *testing.T, unpinned, pinned []byte) {
		t.Helper()
		if !bytes.Equal(unpinned, pinned) {
			t.Fatalf("unpinned response (%d bytes) differs from alg=paremsp's (%d bytes):\n%.300s\n%.300s",
				len(unpinned), len(pinned), unpinned, pinned)
		}
	}
	for _, b := range bodies {
		for _, f := range formats {
			for _, threads := range []string{"", "threads=3&"} {
				t.Run(b.name+"/"+f.name+"/"+threads, func(t *testing.T) {
					url := srv.URL + "/v1/label?" + b.query + f.query + threads
					unpinned := read(t, post(t, url, b.ct, f.accept, b.body))
					same(t, unpinned, read(t, post(t, url+"alg=paremsp", b.ct, f.accept, b.body)))
				})
			}
		}
	}

	// An unpinned job keys as alg=paremsp, so the pinned one is submitted
	// only after the unpinned one is deleted, or it would dedup to it.
	results := func(t *testing.T, query string, body []byte) [][]byte {
		t.Helper()
		sub := submitJobs(t, srv.URL+"/v1/jobs?"+query, ctPBM, body).Jobs[0]
		pollJob(t, srv.URL, sub.ID, string(jobs.StateDone))
		var out [][]byte
		for _, accept := range []string{ctJSON, ctCCL, ctPGM, ctPNG} {
			req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+sub.ID+"/result", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", accept)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, read(t, resp))
		}
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return out
	}
	t.Run("labels-job", func(t *testing.T) {
		body := pbmBody(t, img)
		unpinned := results(t, "", body)
		for i, pinned := range results(t, "alg=paremsp", body) {
			same(t, unpinned[i], pinned)
		}
	})
}
