package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/pnm"
	"repro/internal/stream"
)

// testArt has 5 8-connected components (same fixture as the root API tests).
const testArt = `
	##..#
	##..#
	.....
	#.#.#`

func testImage(t *testing.T) *paremsp.Image {
	t.Helper()
	img, err := paremsp.ParseImage(testArt)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func pbmBody(t *testing.T, img *paremsp.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pnm.EncodePBM(&buf, img, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func pngBody(t *testing.T, img *paremsp.Image) []byte {
	t.Helper()
	gray := image.NewGray(image.Rect(0, 0, img.Width, img.Height))
	for i, v := range img.Pix {
		if v != 0 {
			gray.Pix[i] = 255 // white = above the 0.5 threshold = foreground
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, gray); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, ecfg Config, hcfg HandlerConfig) (*Engine, *httptest.Server) {
	t.Helper()
	eng := NewEngine(ecfg)
	srv := httptest.NewServer(NewHandler(eng, hcfg))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return eng, srv
}

func post(t *testing.T, url, contentType, accept string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLabelJSONFromPBM(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, img))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got labelResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Width != img.Width || got.Height != img.Height {
		t.Fatalf("dims %dx%d, want %dx%d", got.Width, got.Height, img.Width, img.Height)
	}
	if got.NumComponents != 5 {
		t.Fatalf("num_components = %d, want 5", got.NumComponents)
	}
	if len(got.Components) != 5 {
		t.Fatalf("components list has %d entries, want 5", len(got.Components))
	}
	if got.Phases == nil {
		t.Fatal("phases missing for default (paremsp) algorithm")
	}
	var area int64
	for _, c := range got.Components {
		area += c.Area
	}
	if area != int64(img.ForegroundCount()) {
		t.Fatalf("component areas sum to %d, want %d", area, img.ForegroundCount())
	}
}

func TestLabelJSONFromPNG(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	resp := post(t, srv.URL+"/v1/label", ctPNG, "", pngBody(t, img))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got labelResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.NumComponents != 5 {
		t.Fatalf("num_components = %d, want 5", got.NumComponents)
	}
}

func TestLabelSniffsOctetStream(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	for name, ct := range map[string]string{
		"octet-stream": "application/octet-stream",
		"curl-default": "application/x-www-form-urlencoded",
		"absent":       "",
	} {
		resp := post(t, srv.URL+"/v1/label", ct, "", pbmBody(t, img))
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, b)
		}
	}
	for name, body := range map[string][]byte{"png": pngBody(t, img)} {
		resp := post(t, srv.URL+"/v1/label", "application/octet-stream", "", body)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, b)
		}
	}
}

func TestLabelAcceptPGM(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctPGM, pbmBody(t, img))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ctPGM {
		t.Fatalf("Content-Type = %q, want %q", ct, ctPGM)
	}
	// The PGM palette maps every label to >= 64, so binarizing at a low
	// threshold recovers exactly the foreground mask.
	decoded, err := pnm.Decode(resp.Body, 0.1)
	if err != nil {
		t.Fatalf("response is not a decodable PGM: %v", err)
	}
	if !decoded.Equal(img) {
		t.Fatalf("PGM label-map mask:\n%v\nwant:\n%v", decoded, img)
	}
}

func TestLabelAcceptPNG(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctPNG, pbmBody(t, img))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	decoded, err := pnm.DecodePNG(resp.Body, 0.1)
	if err != nil {
		t.Fatalf("response is not a decodable PNG: %v", err)
	}
	if !decoded.Equal(img) {
		t.Fatalf("PNG label-map mask mismatch")
	}
}

func TestLabelAcceptCCL(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctCCL, pbmBody(t, img))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lm, n, err := stream.ReadLabels(resp.Body)
	if err != nil {
		t.Fatalf("response is not a decodable CCL1 stream: %v", err)
	}
	if n != 5 {
		t.Fatalf("CCL1 header reports %d components, want 5", n)
	}
	if err := paremsp.Validate(img, lm, n, true); err != nil {
		t.Fatalf("CCL1 labels are not a valid labeling: %v", err)
	}
}

func TestLabelNotAcceptable(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	resp := post(t, srv.URL+"/v1/label", ctPBM, "text/csv", pbmBody(t, testImage(t)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("status %d, want 406", resp.StatusCode)
	}
}

func TestLabelUnsupportedContentType(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	resp := post(t, srv.URL+"/v1/label", "image/tiff", "", []byte("II*\x00"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", resp.StatusCode)
	}
}

func TestLabelBadOptions(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	body := pbmBody(t, testImage(t))
	for _, query := range []string{"?alg=nonsense", "?conn=6", "?threads=-1", "?level=2", "?conn=4"} {
		resp := post(t, srv.URL+"/v1/label"+query, ctPBM, "", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", query, resp.StatusCode)
		}
	}
	// conn=4 works when paired with an algorithm that supports it.
	resp := post(t, srv.URL+"/v1/label?conn=4&alg=floodfill", ctPBM, "", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conn=4&alg=floodfill: status %d, want 200", resp.StatusCode)
	}
}

func TestLabelOversizedBody(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{MaxImageBytes: 128})
	big := paremsp.NewImage(64, 64) // raw P4 is 8 bytes per row + header
	resp := post(t, srv.URL+"/v1/label", ctPBM, "", pbmBody(t, big))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestQueueFull429 fills the pool (1 worker + 1 queue slot) with blocked
// requests, checks that the next request is shed with 429 while the admitted
// ones complete once unblocked, and that /metrics accounts all of it.
func TestQueueFull429(t *testing.T) {
	eng, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Threads: 1}, HandlerConfig{})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	eng.gate = func(ctx context.Context, _ paremsp.Options) error {
		started <- struct{}{}
		<-block
		return nil
	}

	body := pbmBody(t, testImage(t))
	type outcome struct {
		status int
		comps  int
	}
	results := make(chan outcome, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)
			defer resp.Body.Close()
			var lr labelResponse
			json.NewDecoder(resp.Body).Decode(&lr)
			results <- outcome{resp.StatusCode, lr.NumComponents}
		}()
		if i == 0 {
			// Wait for the worker to pick up the first request so the second
			// deterministically lands in the queue.
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatal("worker never started the first request")
			}
		}
	}
	// Wait until the second request occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(eng.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, srv.URL+"/v1/label", ctPBM, "", body)
	rejectedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429 (%s)", resp.StatusCode, rejectedBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(block)
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("admitted request: status %d, want 200", r.status)
		}
		if r.comps != 5 {
			t.Fatalf("admitted request labeled %d components, want 5", r.comps)
		}
	}

	s := eng.Snapshot()
	if s.Requests != 3 || s.Completed != 2 || s.Rejected != 1 {
		t.Fatalf("snapshot requests/completed/rejected = %d/%d/%d, want 3/2/1",
			s.Requests, s.Completed, s.Rejected)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metricsText, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"ccserve_requests_total 3",
		"ccserve_completed_total 2",
		"ccserve_rejected_total 1",
		"ccserve_workers 1",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsText)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("body %q, want ok", b)
	}
}

func TestMetricsPhaseTimings(t *testing.T) {
	eng, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := paremsp.NewImage(256, 256)
	for i := range img.Pix {
		img.Pix[i] = uint8(i % 2)
	}
	resp := post(t, srv.URL+"/v1/label?components=false", ctPBM, "", pbmBody(t, img))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	s := eng.Snapshot()
	if s.Pixels != 256*256 {
		t.Fatalf("pixels = %d, want %d", s.Pixels, 256*256)
	}
	if s.ScanNs <= 0 {
		t.Fatalf("cumulative scan time = %d ns, want > 0", s.ScanNs)
	}
}

func TestEngineClosedRejects(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	eng.Close()
	eng.Close() // idempotent
	_, err := eng.Label(context.Background(), testImage(t), paremsp.Options{})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Label after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.SubmitLabel(context.Background(), testImage(t), paremsp.Options{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitLabel after Close: %v, want ErrClosed", err)
	}
}

// TestEngineSequentialAlgorithms exercises per-request algorithm selection
// through the pool, including buffer reuse across differently sized images.
func TestEngineSequentialAlgorithms(t *testing.T) {
	eng := NewEngine(Config{Workers: 2})
	defer eng.Close()
	small := testImage(t)
	large := paremsp.NewImage(100, 80)
	for i := range large.Pix {
		large.Pix[i] = uint8((i / 7) % 2)
	}
	for _, alg := range paremsp.Algorithms() {
		for _, img := range []*paremsp.Image{small, large, small} {
			// Label consumes its image, so hand it a pooled copy.
			borrowed := eng.GetImage()
			borrowed.Reset(img.Width, img.Height)
			copy(borrowed.Pix, img.Pix)
			res, err := eng.Label(context.Background(), borrowed, paremsp.Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if err := paremsp.Validate(img, res.Labels, res.NumComponents, true); err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			eng.PutResult(res)
		}
	}
}

func TestLabelConcurrentLoad(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, QueueDepth: 64, Threads: 1}, HandlerConfig{})
	body := pbmBody(t, testImage(t))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)
			defer resp.Body.Close()
			var lr labelResponse
			if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || lr.NumComponents != 5 {
				errs <- fmt.Errorf("status %d, components %d", resp.StatusCode, lr.NumComponents)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLabelBitPackedFastPath posts raw PBM with the bit-packed algorithms
// selected: the handler decodes straight into a pooled Bitmap and the engine
// labels it without ever materializing the byte raster. Responses must match
// the byte-raster path.
func TestLabelBitPackedFastPath(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	body := pbmBody(t, img)
	for _, alg := range []string{"bremsp", "pbremsp"} {
		resp := post(t, srv.URL+"/v1/label?alg="+alg, ctPBM, ctJSON, body)
		var got labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", alg, resp.StatusCode)
		}
		if got.NumComponents != 5 || got.Width != img.Width || got.Height != img.Height {
			t.Fatalf("%s: got %+v", alg, got)
		}
		if got.Density == 0 {
			t.Fatalf("%s: density not computed from the bitmap", alg)
		}
		if alg == "pbremsp" && got.Phases == nil {
			t.Fatal("pbremsp: phase times missing")
		}
	}
}

// TestLabelBitPackedPoolReuse cycles differently-sized P4 uploads through the
// pooled bitmaps to catch stale-word leaks across Reset.
func TestLabelBitPackedPoolReuse(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	big := paremsp.NewImage(130, 40) // 3 words per row
	for i := range big.Pix {
		big.Pix[i] = 1
	}
	small := testImage(t)
	for i, img := range []*paremsp.Image{big, small, big, small} {
		want := 5
		if img == big {
			want = 1
		}
		resp := post(t, srv.URL+"/v1/label?alg=pbremsp", ctPBM, ctJSON, pbmBody(t, img))
		var got labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.NumComponents != want {
			t.Fatalf("request %d: num_components = %d, want %d", i, got.NumComponents, want)
		}
	}
}

// TestLabelBitPackedFallsBackForNonP4 checks that a bit-packed algorithm
// still labels plain-PBM and PNG bodies through the byte-raster decode.
func TestLabelBitPackedFallsBackForNonP4(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	var plain bytes.Buffer
	if err := pnm.EncodePBM(&plain, img, false); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		ct   string
		body []byte
	}{
		"plain-pbm": {ctPBM, plain.Bytes()},
		"png":       {ctPNG, pngBody(t, img)},
	} {
		resp := post(t, srv.URL+"/v1/label?alg=bremsp", tc.ct, ctJSON, tc.body)
		var got labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || got.NumComponents != 5 {
			t.Fatalf("%s: status %d, num_components %d", name, resp.StatusCode, got.NumComponents)
		}
	}
}

// TestLabelDefaultAlgorithmConfig checks that HandlerConfig.DefaultAlgorithm
// applies when ?alg= is absent and that ?alg= still overrides it.
func TestLabelDefaultAlgorithmConfig(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{DefaultAlgorithm: paremsp.AlgPBREMSP})
	img := testImage(t)
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, img))
	var got labelResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.NumComponents != 5 || got.Phases == nil {
		t.Fatalf("default pbremsp: %+v", got)
	}
	resp = post(t, srv.URL+"/v1/label?alg=floodfill", ctPBM, ctJSON, pbmBody(t, img))
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.NumComponents != 5 {
		t.Fatalf("alg override: num_components = %d, want 5", got.NumComponents)
	}
}

// TestLabelBitPackedTruncatedP4 checks the packed decode path's error
// handling: a truncated raw PBM is a 400, and the borrowed bitmap goes back
// to the pool (no worker ever sees it).
func TestLabelBitPackedTruncatedP4(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	resp := post(t, srv.URL+"/v1/label?alg=bremsp", ctPBM, ctJSON, []byte("P4\n64 64\nxx"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestLabelDensityMatchesDecodedRaster pins the JSON density, which the
// handler takes from the decoder's foreground count, to Image.Density() of
// the same raster, exactly, for every binary codec.
func TestLabelDensityMatchesDecodedRaster(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	rng := rand.New(rand.NewSource(5))
	img := paremsp.NewImage(37, 23) // rows end mid-byte in P4
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	var plain, p5 bytes.Buffer
	if err := pnm.EncodePBM(&plain, img, false); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&p5, "P5\n%d %d\n255\n", img.Width, img.Height)
	for range img.Pix {
		p5.WriteByte(byte(rng.Intn(256)))
	}
	for _, c := range []struct {
		name, ct string
		level    float64
		body     []byte
	}{
		{"raw-pbm", ctPBM, 0.5, pbmBody(t, img)},
		{"plain-pbm", ctPBM, 0.5, plain.Bytes()},
		{"raw-pgm", ctPGM, 0.35, p5.Bytes()},
		{"png", ctPNG, 0.5, pngBody(t, img)},
	} {
		decode := pnm.Decode
		if c.ct == ctPNG {
			decode = pnm.DecodePNG
		}
		raster, err := decode(bytes.NewReader(c.body), c.level)
		if err != nil {
			t.Fatal(err)
		}
		resp := post(t, fmt.Sprintf("%s/v1/label?components=false&level=%v", srv.URL, c.level), c.ct, ctJSON, c.body)
		var got labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := raster.Density(); got.Density != want {
			t.Fatalf("%s: density %v, Image.Density() of the decoded raster %v", c.name, got.Density, want)
		}
	}
}

// TestLabelHeaderOnlyBodyIsRefused sends bodies whose headers name a
// 200000x200000 raster (40 GB as bytes) but carry no pixels. Each gets
// 400 invalid_argument and the server stays up: the decoders grow rasters
// with the rows delivered instead of reserving the header's size.
func TestLabelHeaderOnlyBodyIsRefused(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	for _, c := range []struct{ query, ct, body string }{
		{"", ctPBM, "P4\n200000 200000\n"},
		{"?level=0.5", ctPGM, "P5\n200000 200000\n255\n"},
		{"?mode=gray", ctPGM, "P5\n200000 200000\n255\n"},
	} {
		resp := post(t, srv.URL+"/v1/label"+c.query, c.ct, ctJSON, []byte(c.body))
		var e struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "invalid_argument" {
			t.Fatalf("%q%s: status %d, code %q, want 400 invalid_argument", c.body, c.query, resp.StatusCode, e.Error.Code)
		}
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refusals: status %d", resp.StatusCode)
	}
}
