package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/pnm"
)

// grayBody builds a deterministic pseudo-random raw-PGM (P5) gray raster.
func grayBody(t *testing.T, w, h int, seed int64) ([]byte, *paremsp.GrayImage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	img := paremsp.NewGrayImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(4) * 60)
	}
	var buf bytes.Buffer
	if err := pnm.EncodeGrayPGM(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), img
}

// volumeBody builds d concatenated P5 frames — the /v1/volume wire format —
// and the volume they binarize to at level 0.5.
func volumeBody(t *testing.T, w, h, d int, seed int64) ([]byte, *paremsp.Volume) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vol := paremsp.NewVolume(w, h, d)
	var buf bytes.Buffer
	for z := 0; z < d; z++ {
		frame := paremsp.NewGrayImage(w, h)
		for i := range frame.Pix {
			if rng.Intn(2) == 1 {
				frame.Pix[i] = 255
				vol.Vox[z*w*h+i] = 1
			}
		}
		if err := pnm.EncodeGrayPGM(&buf, frame); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), vol
}

// envelopeOf decodes and closes an error response, asserting the expected
// status and envelope code; it returns the message.
func envelopeOf(t *testing.T, resp *http.Response, wantStatus int, wantCode string) string {
	t.Helper()
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d (%s), want %d", resp.StatusCode, raw, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ctJSON {
		t.Fatalf("error Content-Type = %q, want %q (body %s)", ct, ctJSON, raw)
	}
	var env errorJSON
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", raw, err)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("error code = %q (%s), want %q", env.Error.Code, raw, wantCode)
	}
	if env.Error.Message == "" {
		t.Fatal("error envelope has an empty message")
	}
	return env.Error.Message
}

// TestSpecValidationUniform pins the one-parser contract: a bad parameter
// fails with the same status, envelope code, and message on /v1/label,
// /v1/stats, /v1/volume and POST /v1/jobs.
func TestSpecValidationUniform(t *testing.T) {
	_, store, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{})
	_ = store
	endpoints := []string{"/v1/label", "/v1/stats", "/v1/volume", "/v1/jobs"}
	cases := []struct {
		name  string
		query string
	}{
		{"bad-alg", "?alg=nope"},
		{"bad-conn", "?conn=5"},
		{"level-high", "?level=1.5"},
		{"level-negative", "?level=-0.1"},
		{"bad-threads", "?threads=-2"},
		{"bad-mode", "?mode=tesseract"},
		{"delta-without-mode", "?delta=9"},
		{"bad-band", "?band=-1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msgs := map[string]string{}
			for _, ep := range endpoints {
				resp := post(t, srv.URL+ep+tc.query, ctPBM, ctJSON, pbmBody(t, testImage(t)))
				msgs[ep] = envelopeOf(t, resp, http.StatusBadRequest, codeInvalidArgument)
			}
			for _, ep := range endpoints[1:] {
				if msgs[ep] != msgs[endpoints[0]] {
					t.Fatalf("message differs between %s (%q) and %s (%q)",
						endpoints[0], msgs[endpoints[0]], ep, msgs[ep])
				}
			}
		})
	}
}

// TestErrorEnvelopeStatusPaths drives one request down each error path and
// asserts the envelope shape (and that 429/503 keep their Retry-After).
func TestErrorEnvelopeStatusPaths(t *testing.T) {
	t.Run("415-unsupported-media", func(t *testing.T) {
		_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
		resp := post(t, srv.URL+"/v1/label", "text/csv", ctJSON, []byte("a,b"))
		envelopeOf(t, resp, http.StatusUnsupportedMediaType, codeUnsupportedMedia)
	})
	t.Run("406-bad-accept", func(t *testing.T) {
		_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
		resp := post(t, srv.URL+"/v1/label", ctPBM, "text/csv", pbmBody(t, testImage(t)))
		envelopeOf(t, resp, http.StatusNotAcceptable, codeNotAcceptable)
	})
	t.Run("413-payload-too-large", func(t *testing.T) {
		_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{MaxImageBytes: 4})
		resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
		envelopeOf(t, resp, http.StatusRequestEntityTooLarge, codePayloadTooLarge)
	})
	t.Run("400-bad-body", func(t *testing.T) {
		_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
		resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, []byte("P1 garbage"))
		envelopeOf(t, resp, http.StatusBadRequest, codeInvalidArgument)
	})
	t.Run("404-unknown-job", func(t *testing.T) {
		_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{})
		resp, err := http.Get(srv.URL + "/v1/jobs/deadbeef")
		if err != nil {
			t.Fatal(err)
		}
		envelopeOf(t, resp, http.StatusNotFound, codeNotFound)
	})
	t.Run("504-timeout", func(t *testing.T) {
		eng, srv := newTestServer(t, Config{Workers: 1, Threads: 1},
			HandlerConfig{RequestTimeout: 50 * time.Millisecond})
		started := make(chan struct{}, 1)
		blockFirstRun(eng, started)
		resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
		envelopeOf(t, resp, http.StatusGatewayTimeout, codeTimeout)
	})
	t.Run("503-draining-keeps-retry-after", func(t *testing.T) {
		eng, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
		_ = eng
		resp := post(t, srv.URL+"/healthz", "", "", nil) // warm; then drain
		resp.Body.Close()
		h := srv.Config.Handler.(*Handler)
		h.StartDrain()
		resp = post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("draining 503 lost its Retry-After header")
		}
		envelopeOf(t, resp, http.StatusServiceUnavailable, codeUnavailable)
	})
	t.Run("429-queue-full-keeps-retry-after", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Arm(faultinject.QueueFull, faultinject.Spec{Every: 1})
		_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
		resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 lost its Retry-After header")
		}
		envelopeOf(t, resp, http.StatusTooManyRequests, codeQueueFull)
	})
}

// TestLabelGrayHTTPDifferential: /v1/label?mode=gray must agree with the
// library's gray labeler — component count over JSON, the label raster
// over PGM — and mode=gray-delta with the delta labeler.
func TestLabelGrayHTTPDifferential(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2}, HandlerConfig{})
	body, img := grayBody(t, 67, 43, 21)
	_, wantN := paremsp.LabelGray(img)

	t.Run("json", func(t *testing.T) {
		resp := post(t, srv.URL+"/v1/label?mode=gray", ctPGM, ctJSON, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		var out labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.NumComponents != wantN {
			t.Fatalf("num_components = %d, want %d (library)", out.NumComponents, wantN)
		}
		if out.Width != img.Width || out.Height != img.Height {
			t.Fatalf("dims %dx%d, want %dx%d", out.Width, out.Height, img.Width, img.Height)
		}
		if len(out.Components) != wantN {
			t.Fatalf("components len %d, want %d", len(out.Components), wantN)
		}
	})

	t.Run("pgm-raster", func(t *testing.T) {
		resp := post(t, srv.URL+"/v1/label?mode=gray", ctPGM, ctPGM, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		got := paremsp.NewGrayImage(0, 0)
		if err := pnm.DecodeGrayInto(resp.Body, got); err != nil {
			t.Fatal(err)
		}
		if got.Width != img.Width || got.Height != img.Height {
			t.Fatalf("raster dims %dx%d, want %dx%d", got.Width, got.Height, img.Width, img.Height)
		}
		// Gray mode has no background: every pixel is labeled, so the
		// palette never emits the background byte 0.
		for i, v := range got.Pix {
			if v == 0 {
				t.Fatalf("pixel %d rendered as background; gray mode labels every pixel", i)
			}
		}
	})

	t.Run("gray-delta", func(t *testing.T) {
		_, wantDN := paremsp.LabelGrayDelta(img, 60)
		resp := post(t, srv.URL+"/v1/label?mode=gray-delta&delta=60", ctPGM, ctJSON, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		var out labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.NumComponents != wantDN {
			t.Fatalf("delta num_components = %d, want %d (library)", out.NumComponents, wantDN)
		}
	})

	t.Run("volume-mode-rejected", func(t *testing.T) {
		resp := post(t, srv.URL+"/v1/label?mode=volume", ctPGM, ctJSON, body)
		msg := envelopeOf(t, resp, http.StatusBadRequest, codeInvalidArgument)
		if !strings.Contains(msg, "/v1/volume") {
			t.Fatalf("message %q does not point at /v1/volume", msg)
		}
	})
}

// TestVolumeHTTPDifferential: POST /v1/volume must agree with the library's
// 3-D labeler on the same decoded stack.
func TestVolumeHTTPDifferential(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2}, HandlerConfig{})
	body, vol := volumeBody(t, 19, 11, 7, 22)
	wantLv, wantN := paremsp.LabelVolume(vol)
	wantSizes := paremsp.VolumeComponentSizes(wantLv, wantN)

	resp := post(t, srv.URL+"/v1/volume", ctPGM, ctJSON, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var out volumeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Width != vol.W || out.Height != vol.H || out.Depth != vol.D {
		t.Fatalf("dims %dx%dx%d, want %dx%dx%d", out.Width, out.Height, out.Depth, vol.W, vol.H, vol.D)
	}
	if out.NumComponents != wantN {
		t.Fatalf("num_components = %d, want %d (library)", out.NumComponents, wantN)
	}
	if len(out.ComponentSizes) != len(wantSizes) {
		t.Fatalf("component_sizes len %d, want %d", len(out.ComponentSizes), len(wantSizes))
	}
	for i := range wantSizes {
		if out.ComponentSizes[i] != wantSizes[i] {
			t.Fatalf("component_sizes[%d] = %d, want %d", i, out.ComponentSizes[i], wantSizes[i])
		}
	}

	t.Run("components-false", func(t *testing.T) {
		resp := post(t, srv.URL+"/v1/volume?components=false", ctPGM, ctJSON, body)
		defer resp.Body.Close()
		var out volumeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.ComponentSizes != nil {
			t.Fatal("components=false still returned component_sizes")
		}
	})
}

// TestUnpinnedThreadsByteIdentical: a response labeled on every free CPU
// token must equal, byte for byte, the one pinned to ?threads=1 — label
// numbering may not depend on how many threads a labeling was lent. The
// inputs span several row (or plane) pairs, so whether they split depends
// on GOMAXPROCS alone.
func TestUnpinnedThreadsByteIdentical(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	img := chaosImage(7)
	gray, _ := grayBody(t, 41, 29, 8)
	vol, _ := volumeBody(t, 9, 7, 13, 9)
	cases := []struct {
		name, path, ct, accept string
		body                   []byte
	}{
		{"binary-ccl1", "/v1/label?", ctPBM, ctCCL, pbmBody(t, img)},
		{"gray-ccl1", "/v1/label?mode=gray&", ctPGM, ctCCL, gray},
		{"volume-json", "/v1/volume?", ctPGM, ctJSON, vol},
	}
	fetch := func(t *testing.T, url, ct, accept string, body []byte) []byte {
		t.Helper()
		resp := post(t, url, ct, accept, body)
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", url, resp.StatusCode, raw)
		}
		return raw
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			unpinned := fetch(t, srv.URL+c.path, c.ct, c.accept, c.body)
			pinned := fetch(t, srv.URL+c.path+"threads=1", c.ct, c.accept, c.body)
			if !bytes.Equal(unpinned, pinned) {
				t.Fatalf("unpinned response (%d bytes) differs from ?threads=1 (%d bytes)", len(unpinned), len(pinned))
			}
		})
	}
}

// TestContoursHTTPDifferential: ?contours=true must return exactly the
// polylines the library traces on the same labeling.
func TestContoursHTTPDifferential(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2}, HandlerConfig{})
	img := testImage(t)
	res, err := paremsp.Label(img, paremsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := paremsp.TraceContours(res.Labels, res.NumComponents)

	resp := post(t, srv.URL+"/v1/label?contours=true", ctPBM, ctJSON, pbmBody(t, img))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var out labelResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Contours) != len(want) {
		t.Fatalf("contours len %d, want %d", len(out.Contours), len(want))
	}
	for i, c := range want {
		if out.Contours[i].Label != int32(c.Label) {
			t.Fatalf("contour %d label %d, want %d", i, out.Contours[i].Label, c.Label)
		}
		if len(out.Contours[i].Points) != len(c.Points) {
			t.Fatalf("contour %d has %d points, want %d", i, len(out.Contours[i].Points), len(c.Points))
		}
		for j, p := range c.Points {
			if out.Contours[i].Points[j] != [2]int{p.X, p.Y} {
				t.Fatalf("contour %d point %d = %v, want %v", i, j, out.Contours[i].Points[j], p)
			}
		}
	}

	t.Run("contours-json-only", func(t *testing.T) {
		resp := post(t, srv.URL+"/v1/label?contours=true", ctPBM, ctPGM, pbmBody(t, img))
		envelopeOf(t, resp, http.StatusNotAcceptable, codeNotAcceptable)
	})
}

// TestEngineGrayCancel: a gray labeling canceled mid-run returns the
// context error and releases its (single) worker; the pooled gray buffers
// must produce a correct labeling on the next call.
func TestEngineGrayCancel(t *testing.T) {
	eng := NewEngine(Config{Workers: 1, Threads: 1})
	defer eng.Close()
	started := make(chan struct{}, 1)
	blockFirstRun(eng, started)

	mkGray := func(seed int64) *paremsp.GrayImage {
		g := eng.GetGray()
		_, src := grayBody(t, 31, 17, seed)
		g.Reset(src.Width, src.Height)
		copy(g.Pix, src.Pix)
		return g
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.LabelGray(ctx, mkGray(31), paremsp.Options{Mode: paremsp.ModeGray})
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("LabelGray after cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LabelGray did not return after cancellation")
	}

	_, src := grayBody(t, 31, 17, 32)
	wantLm, wantN := paremsp.LabelGray(src)
	g := eng.GetGray()
	g.Reset(src.Width, src.Height)
	copy(g.Pix, src.Pix)
	res, err := eng.LabelGray(context.Background(), g, paremsp.Options{Mode: paremsp.ModeGray})
	if err != nil {
		t.Fatalf("follow-up LabelGray: %v", err)
	}
	if res.NumComponents != wantN {
		t.Fatalf("follow-up NumComponents = %d, want %d", res.NumComponents, wantN)
	}
	if err := paremsp.Equivalent(wantLm, res.Labels); err != nil {
		t.Fatalf("follow-up labeling wrong (stale pooled state?): %v", err)
	}
	eng.PutResult(res)

	// Pre-canceled: rejected on the worker's dead-context path, input
	// reclaimed, error is the context's.
	dead, dcancel := context.WithCancel(context.Background())
	dcancel()
	if _, err := eng.LabelGray(dead, mkGray(33), paremsp.Options{Mode: paremsp.ModeGray}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled LabelGray: err = %v, want context.Canceled", err)
	}
}

// TestEngineVolumeCancel: same contract for the 3-D path, including the
// pooled LabelVolumeMap.
func TestEngineVolumeCancel(t *testing.T) {
	eng := NewEngine(Config{Workers: 1, Threads: 1})
	defer eng.Close()
	started := make(chan struct{}, 1)
	blockFirstRun(eng, started)

	mkVol := func(seed int64) *paremsp.Volume {
		v := eng.GetVolume()
		_, src := volumeBody(t, 9, 7, 5, seed)
		v.Reset(src.W, src.H, src.D)
		copy(v.Vox, src.Vox)
		return v
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.LabelVolume(ctx, mkVol(41), paremsp.Options{Mode: paremsp.ModeVolume})
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("LabelVolume after cancel: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LabelVolume did not return after cancellation")
	}

	_, src := volumeBody(t, 9, 7, 5, 42)
	_, wantN := paremsp.LabelVolume(src)
	v := eng.GetVolume()
	v.Reset(src.W, src.H, src.D)
	copy(v.Vox, src.Vox)
	res, err := eng.LabelVolume(context.Background(), v, paremsp.Options{Mode: paremsp.ModeVolume})
	if err != nil {
		t.Fatalf("follow-up LabelVolume: %v", err)
	}
	if res.NumComponents != wantN {
		t.Fatalf("follow-up NumComponents = %d, want %d", res.NumComponents, wantN)
	}
	eng.PutVolumeResult(res)

	dead, dcancel := context.WithCancel(context.Background())
	dcancel()
	if _, err := eng.LabelVolume(dead, mkVol(43), paremsp.Options{Mode: paremsp.ModeVolume}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled LabelVolume: err = %v, want context.Canceled", err)
	}
}

// waitJobDone polls a job's status until it reaches done (or fails).
func waitJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j jobJSON
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch j.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s reached state %s: %s", id, j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobModesDistinctAndDedup: one body submitted under different modes
// creates distinct jobs; resubmitting under the same mode dedups. Runs
// against whichever store backend CCSERVE_TEST_JOB_STORE selects.
func TestJobModesDistinctAndDedup(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 2}, jobs.Options{})
	body, _ := grayBody(t, 23, 19, 51)

	ids := map[string]string{}
	for _, q := range []string{"", "?kind=gray", "?mode=gray-delta&delta=40", "?kind=stats", "?kind=contours"} {
		out := submitJobs(t, srv.URL+"/v1/jobs"+q, ctPGM, body)
		if out.Jobs[0].Dedup {
			t.Fatalf("first submission %q dedup'd", q)
		}
		for prev, id := range ids {
			if id == out.Jobs[0].ID {
				t.Fatalf("submissions %q and %q share job %s", q, prev, id)
			}
		}
		ids[q] = out.Jobs[0].ID
	}

	// Same body, same mode → same job, dedup'd.
	for _, q := range []string{"?kind=gray", "?mode=gray-delta&delta=40"} {
		out := submitJobs(t, srv.URL+"/v1/jobs"+q, ctPGM, body)
		if !out.Jobs[0].Dedup || out.Jobs[0].ID != ids[q] {
			t.Fatalf("resubmission %q: dedup=%v id=%s, want dedup of %s", q, out.Jobs[0].Dedup, out.Jobs[0].ID, ids[q])
		}
	}
	// A different delta is a different job.
	out := submitJobs(t, srv.URL+"/v1/jobs?mode=gray-delta&delta=41", ctPGM, body)
	if out.Jobs[0].ID == ids["?mode=gray-delta&delta=40"] {
		t.Fatal("different delta dedup'd to the same job")
	}
	// mode=gray with no kind routes to the gray job too.
	out = submitJobs(t, srv.URL+"/v1/jobs?mode=gray", ctPGM, body)
	if out.Jobs[0].ID != ids["?kind=gray"] {
		t.Fatal("?mode=gray and ?kind=gray built different job IDs")
	}
}

// TestJobNewKindsLifecycle runs a gray, a volume, and a contours job to
// done and asserts each result's shape — including that results agree with
// the library on the same inputs.
func TestJobNewKindsLifecycle(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 2}, jobs.Options{})

	t.Run("gray", func(t *testing.T) {
		body, img := grayBody(t, 29, 31, 61)
		_, wantN := paremsp.LabelGray(img)
		out := submitJobs(t, srv.URL+"/v1/jobs?kind=gray", ctPGM, body)
		id := out.Jobs[0].ID
		waitJobDone(t, srv.URL, id)
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != wantN {
			t.Fatalf("gray job num_components = %d, want %d", res.NumComponents, wantN)
		}
	})

	t.Run("volume", func(t *testing.T) {
		body, vol := volumeBody(t, 13, 9, 6, 62)
		wantLv, wantN := paremsp.LabelVolume(vol)
		wantSizes := paremsp.VolumeComponentSizes(wantLv, wantN)
		out := submitJobs(t, srv.URL+"/v1/jobs?kind=volume", ctPGM, body)
		id := out.Jobs[0].ID
		waitJobDone(t, srv.URL, id)
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res volumeResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != wantN || res.Depth != vol.D {
			t.Fatalf("volume job = %d comps depth %d, want %d comps depth %d", res.NumComponents, res.Depth, wantN, vol.D)
		}
		if fmt.Sprint(res.ComponentSizes) != fmt.Sprint(wantSizes) {
			t.Fatalf("volume job sizes %v, want %v", res.ComponentSizes, wantSizes)
		}
	})

	t.Run("contours", func(t *testing.T) {
		img := testImage(t)
		res0, err := paremsp.Label(img, paremsp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := paremsp.TraceContours(res0.Labels, res0.NumComponents)
		out := submitJobs(t, srv.URL+"/v1/jobs?kind=contours", ctPBM, pbmBody(t, img))
		id := out.Jobs[0].ID
		waitJobDone(t, srv.URL, id)
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res labelResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if len(res.Contours) != len(want) {
			t.Fatalf("contours job returned %d contours, want %d", len(res.Contours), len(want))
		}
		if res.NumComponents != res0.NumComponents {
			t.Fatalf("contours job num_components = %d, want %d", res.NumComponents, res0.NumComponents)
		}
	})

	t.Run("kind-conflicts", func(t *testing.T) {
		body, _ := grayBody(t, 8, 8, 63)
		for _, q := range []string{"?kind=stats&mode=gray", "?kind=labels&mode=volume", "?kind=volume&contours=true"} {
			resp := post(t, srv.URL+"/v1/jobs"+q, ctPGM, ctJSON, body)
			envelopeOf(t, resp, http.StatusBadRequest, codeInvalidArgument)
		}
	})
}
