package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/band"
	"repro/internal/jobs"
	"repro/internal/pnm"
)

type statsBody struct {
	Width         int             `json:"width"`
	Height        int             `json:"height"`
	NumComponents int             `json:"num_components"`
	Density       float64         `json:"density"`
	BandRows      int             `json:"band_rows"`
	Components    []componentJSON `json:"components"`
}

func TestStatsJSONFromPBM(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	img := testImage(t)
	for _, bandParam := range []string{"", "?band=1", "?band=2"} {
		resp := post(t, srv.URL+"/v1/stats"+bandParam, "image/x-portable-bitmap", "", pbmBody(t, img))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("band %q: status %d", bandParam, resp.StatusCode)
		}
		var body statsBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if body.Width != img.Width || body.Height != img.Height {
			t.Fatalf("band %q: shape %dx%d, want %dx%d", bandParam, body.Width, body.Height, img.Width, img.Height)
		}
		if body.NumComponents != 5 || len(body.Components) != 5 {
			t.Fatalf("band %q: %d components (%d listed), want 5", bandParam, body.NumComponents, len(body.Components))
		}
		var area int64
		for _, c := range body.Components {
			area += c.Area
			if c.Runs < 1 {
				t.Fatalf("band %q: component %d has %d runs", bandParam, c.Label, c.Runs)
			}
		}
		wantArea := int64(img.ForegroundCount())
		if area != wantArea {
			t.Fatalf("band %q: total area %d, want %d", bandParam, area, wantArea)
		}
		wantDensity := float64(wantArea) / float64(img.Width*img.Height)
		if body.Density != wantDensity {
			t.Fatalf("band %q: density %v, want %v", bandParam, body.Density, wantDensity)
		}
	}
}

func TestStatsRejectsNonRawInput(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	resp := post(t, srv.URL+"/v1/stats", "image/png", "", pngBody(t, testImage(t)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PNG body: status %d, want 400", resp.StatusCode)
	}
}

func TestStatsBadOptions(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	for _, q := range []string{"?band=-1", "?band=x", "?level=1.5", "?level=abc"} {
		resp := post(t, srv.URL+"/v1/stats"+q, "image/x-portable-bitmap", "", pbmBody(t, testImage(t)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestStatsNotAcceptable(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	resp := post(t, srv.URL+"/v1/stats", "image/x-portable-bitmap", "image/png", pbmBody(t, testImage(t)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("status %d, want 406", resp.StatusCode)
	}
}

func TestStatsOversizedBody(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{MaxImageBytes: 4})
	resp := post(t, srv.URL+"/v1/stats", "image/x-portable-bitmap", "", pbmBody(t, testImage(t)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestStatsTruncatedBody(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	body := pbmBody(t, testImage(t))
	resp := post(t, srv.URL+"/v1/stats", "image/x-portable-bitmap", "", body[:len(body)-2])
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestStatsCanceledContext covers the stream-job cancellation contract:
// Stats must not return before the worker is finished with the source (the
// HTTP handler hands it the request body), so a pre-canceled context is
// rejected by the worker without reading a single byte.
func TestStatsCanceledContext(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := pnm.NewBandReaderBytes(pbmBody(t, testImage(t)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Stats(ctx, src, band.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestServiceConcurrentLabelAndStats is the race/stress coverage for one
// Engine serving both endpoints at once: mixed /v1/label and /v1/stats
// requests from many goroutines must all succeed with the right counts
// while sharing the worker pool, the raster pools, and the metrics.
func TestServiceConcurrentLabelAndStats(t *testing.T) {
	eng, srv := newTestServer(t, Config{Workers: 4, QueueDepth: 256}, HandlerConfig{})
	img := testImage(t)
	body := pbmBody(t, img)

	const clients = 8
	const perClient = 20
	var failures atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				path := "/v1/label"
				if (c+i)%2 == 0 {
					path = fmt.Sprintf("/v1/stats?band=%d", 1+i%3)
				}
				resp, err := http.Post(srv.URL+path, "image/x-portable-bitmap", bytes.NewReader(body))
				if err != nil {
					t.Errorf("%s: %v", path, err)
					failures.Add(1)
					continue
				}
				var got struct {
					NumComponents int `json:"num_components"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || got.NumComponents != 5 {
					t.Errorf("%s: status %d, components %d, err %v", path, resp.StatusCode, got.NumComponents, err)
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests failed", failures.Load(), clients*perClient)
	}
	snap := eng.Snapshot()
	if snap.Completed != clients*perClient {
		t.Fatalf("engine completed %d requests, want %d", snap.Completed, clients*perClient)
	}
}

// TestStatsComponentsParam: ?components=false leaves the component list out
// of /v1/stats and of a stats job's result, as it does for labelings, and a
// requested list is present even when the image has no component.
func TestStatsComponentsParam(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{TTL: time.Hour})
	three := []byte("P4\n8 2\n\xc3\x18") // runs x=0-1 and x=6-7 on row 0, x=3-4 on row 1
	blank := []byte("P4\n8 2\n\x00\x00")
	fields := func(resp *http.Response) map[string]json.RawMessage {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	jobResult := func(body []byte, query string) map[string]json.RawMessage {
		t.Helper()
		id := submitJobs(t, srv.URL+"/v1/jobs?kind=stats", ctPBM, body).Jobs[0].ID
		pollJob(t, srv.URL, id, "done")
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result" + query)
		if err != nil {
			t.Fatal(err)
		}
		return fields(resp)
	}
	for _, tc := range []struct {
		name string
		body []byte
		q    string
		n    string // num_components
		want string // the components value; "" = the key is absent
	}{
		{"listed", three, "", "3", `[{"label":1,"area":2,"bbox":[0,0,1,0],"centroid":[0.5,0],"runs":1},` +
			`{"label":2,"area":2,"bbox":[6,0,7,0],"centroid":[6.5,0],"runs":1},` +
			`{"label":3,"area":2,"bbox":[3,1,4,1],"centroid":[3.5,1],"runs":1}]`},
		{"omitted", three, "?components=false", "3", ""},
		{"empty", blank, "", "0", "[]"},
		{"empty-omitted", blank, "?components=false", "0", ""},
	} {
		sync := fields(post(t, srv.URL+"/v1/stats"+tc.q, ctPBM, "", tc.body))
		async := jobResult(tc.body, tc.q)
		for name, got := range map[string]map[string]json.RawMessage{"sync": sync, "job": async} {
			list, ok := got["components"]
			if string(list) != tc.want || ok != (tc.want != "") {
				t.Errorf("%s/%s: components %s (present %v), want %q", tc.name, name, list, ok, tc.want)
			}
			if n := string(got["num_components"]); n != tc.n {
				t.Errorf("%s/%s: num_components %s, want %s", tc.name, name, n, tc.n)
			}
		}
	}
}
