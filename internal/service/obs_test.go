package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h hist
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty hist quantile = %d, want 0", got)
	}
	h.observe(0)       // bucket 0
	h.observe(1)       // bucket 1
	h.observe(2)       // bucket 2
	h.observe(3)       // bucket 2
	h.observe(1000)    // bucket 10 (bound 1023)
	h.observe(-5)      // clamps to 0 → bucket 0
	h.observe(1 << 50) // overflow slot
	b, count := h.snapshot()
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if b[0] != 2 || b[1] != 1 || b[2] != 2 || b[10] != 1 || b[histFinite] != 1 {
		t.Fatalf("bucket counts = %v", b)
	}
	if got := h.quantile(0.5); got != bucketBound(2) {
		t.Fatalf("p50 = %d, want %d", got, bucketBound(2))
	}
	// The overflow hit dominates the extreme tail and must report the first
	// out-of-range power of two, not a finite bound that lies.
	if got := h.quantile(1.0); got != int64(1)<<uint(histFinite) {
		t.Fatalf("p100 = %d, want 2^%d", got, histFinite)
	}
}

func TestWritePromHistCumulative(t *testing.T) {
	var h hist
	for _, v := range []int64{0, 1, 1, 5, 5, 5, 900} {
		h.observe(v)
	}
	var buf bytes.Buffer
	if _, err := writePromHist(&buf, "x_ns", "help text.", []histSeries{{h: &h}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP ccserve_x_ns help text.\n",
		"# TYPE ccserve_x_ns histogram\n",
		`ccserve_x_ns_bucket{le="0"} 1` + "\n",
		`ccserve_x_ns_bucket{le="1"} 3` + "\n",
		`ccserve_x_ns_bucket{le="7"} 6` + "\n",
		`ccserve_x_ns_bucket{le="+Inf"} 7` + "\n",
		"ccserve_x_ns_sum 917\n",
		"ccserve_x_ns_count 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestInstrumentationAllocFree pins the hot-path instrumentation cost:
// histogram observes and trace-ring captures must not allocate.
func TestInstrumentationAllocFree(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.observe(123456) }); n != 0 {
		t.Fatalf("hist.observe allocates %.1f objects/op, want 0", n)
	}
	ring := newTraceRing(64)
	tr := Trace{ID: "alloc-probe", Method: "POST", Path: "/v1/label", TotalNs: 42}
	if n := testing.AllocsPerRun(1000, func() { ring.put(&tr) }); n != 0 {
		t.Fatalf("traceRing.put allocates %.1f objects/op, want 0", n)
	}
}

// promSample is one parsed exposition line for the validator.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

func parsePromLine(t *testing.T, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		j := strings.IndexByte(line, '}')
		if j < i {
			t.Fatalf("malformed sample line %q", line)
		}
		for _, pair := range strings.Split(line[i+1:j], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("malformed label %q in %q", pair, line)
			}
			s.labels[k] = strings.Trim(v, `"`)
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		s.name = name
		rest = v
	}
	val, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	s.value = val
	return s
}

// labelKey renders a sample's labels minus le, for grouping histogram
// series.
func labelKey(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	// Tiny maps; insertion-sort keeps the key deterministic.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// TestPromExpositionValid scrapes a live /metrics after real traffic and
// validates the exposition: every sample's family has HELP and TYPE,
// histogram buckets are cumulative and non-decreasing, and the +Inf bucket
// of every series equals its _count.
func TestPromExpositionValid(t *testing.T) {
	store := newTestJobStore(t, jobs.Options{TTL: time.Minute})
	eng := NewEngine(Config{Workers: 2})
	h := NewHandler(eng, HandlerConfig{Jobs: store})
	srv := httptest.NewServer(h)
	defer func() { srv.Close(); eng.Close(); h.WaitJobs(); store.Close() }()

	body := pbmBody(t, testImage(t))
	for i := 0; i < 3; i++ {
		resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	sub := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, body)
	pollJob(t, srv.URL, sub.Jobs[0].ID, string(jobs.StateDone))
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)

	for _, family := range []string{
		"ccserve_http_request_duration_ns", "ccserve_queue_wait_ns",
		"ccserve_job_service_ns", "ccserve_phase_duration_ns",
		"ccserve_job_latency_p50_ns", "ccserve_jobs_submitted_total",
		"ccserve_pool_get_total", "ccserve_pool_miss_total",
		"ccserve_worker_busy_ns_total", "ccserve_workers_busy",
		"ccserve_go_goroutines", "ccserve_go_heap_objects_bytes",
		"ccserve_go_gc_pause_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Fatalf("missing family %s in exposition:\n%s", family, text)
		}
	}
	if !regexp.MustCompile(`ccserve_http_request_duration_ns_bucket\{endpoint="label",le="\+Inf"\} [1-9]`).MatchString(text) {
		t.Fatalf("label endpoint histogram recorded no requests:\n%s", text)
	}
	// The raster traffic above borrowed from the image, labelmap and scratch
	// pools; their get counters must be live (the bitmap pool stays 0 — no
	// bit-packed requests were sent).
	for _, pool := range []string{"image", "labelmap", "scratch"} {
		if !regexp.MustCompile(`ccserve_pool_get_total\{pool="` + pool + `"\} [1-9]`).MatchString(text) {
			t.Fatalf("pool %s recorded no gets:\n%s", pool, text)
		}
	}
	if !regexp.MustCompile(`ccserve_worker_busy_ns_total [1-9]`).MatchString(text) {
		t.Fatalf("worker busy time not recorded:\n%s", text)
	}
	if !regexp.MustCompile(`ccserve_go_goroutines [1-9]`).MatchString(text) {
		t.Fatalf("goroutine gauge missing or zero:\n%s", text)
	}

	help := map[string]bool{}
	typ := map[string]string{}
	type seriesState struct {
		prev    float64
		infSeen bool
		inf     float64
	}
	buckets := map[string]*seriesState{} // family + "|" + labelKey
	counts := map[string]float64{}

	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, ok := strings.Cut(rest, " ")
			if !ok || h == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
			continue
		}
		s := parsePromLine(t, line)
		family := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.name, suffix); ok && typ[base] == "histogram" {
				family = base
				break
			}
		}
		if !help[family] {
			t.Fatalf("sample %q has no # HELP for family %q", line, family)
		}
		if typ[family] == "" {
			t.Fatalf("sample %q has no # TYPE for family %q", line, family)
		}
		if typ[family] == "histogram" {
			key := family + "|" + labelKey(s.labels)
			switch {
			case strings.HasSuffix(s.name, "_bucket"):
				st := buckets[key]
				if st == nil {
					st = &seriesState{}
					buckets[key] = st
				}
				if s.value < st.prev {
					t.Fatalf("bucket counts decrease in series %s: %v after %v", key, s.value, st.prev)
				}
				st.prev = s.value
				if s.labels["le"] == "+Inf" {
					st.infSeen, st.inf = true, s.value
				}
			case strings.HasSuffix(s.name, "_count"):
				counts[key] = s.value
			}
		}
	}
	if len(buckets) == 0 {
		t.Fatal("validator saw no histogram series")
	}
	for key, st := range buckets {
		if !st.infSeen {
			t.Fatalf("series %s has no le=\"+Inf\" bucket", key)
		}
		c, ok := counts[key]
		if !ok {
			t.Fatalf("series %s has buckets but no _count", key)
		}
		if st.inf != c {
			t.Fatalf("series %s: le=\"+Inf\" bucket %v != _count %v", key, st.inf, c)
		}
	}
}

func TestRequestIDEchoAndServerTiming(t *testing.T) {
	_, srv := newTestServer(t, Config{}, HandlerConfig{})
	body := pbmBody(t, testImage(t))

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/label", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctPBM)
	req.Header.Set("Accept", ctJSON)
	req.Header.Set(headerRequestID, "my-custom-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(headerRequestID); got != "my-custom-id-42" {
		t.Fatalf("inbound request ID not echoed: got %q", got)
	}
	st := resp.Header.Get("Server-Timing")
	for _, field := range []string{"queue;dur=", "decode;dur=", "scan;dur=", "merge;dur=", "flatten;dur=", "relabel;dur=", "total;dur="} {
		if !strings.Contains(st, field) {
			t.Fatalf("Server-Timing %q missing %q", st, field)
		}
	}

	// Without an inbound ID the service mints one: 16 hex characters.
	resp2 := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	id := resp2.Header.Get(headerRequestID)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("generated request ID = %q, want 16 hex chars", id)
	}
}

func TestDebugRequestsAndPprof(t *testing.T) {
	obs := NewObs(nil, 64)
	eng := NewEngine(Config{})
	srv := httptest.NewServer(NewHandler(eng, HandlerConfig{Obs: obs}))
	dbg := httptest.NewServer(NewDebugHandler(obs))
	defer func() { srv.Close(); dbg.Close(); eng.Close() }()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/label", bytes.NewReader(pbmBody(t, testImage(t))))
	req.Header.Set("Content-Type", ctPBM)
	req.Header.Set("Accept", ctJSON)
	req.Header.Set(headerRequestID, "trace-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	dresp, err := http.Get(dbg.URL + "/debug/requests?n=50&id=trace-me-1")
	if err != nil {
		t.Fatal(err)
	}
	var traces []Trace
	if err := json.NewDecoder(dresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if len(traces) != 1 {
		t.Fatalf("got %d traces for id=trace-me-1, want 1", len(traces))
	}
	tr := traces[0]
	if tr.ID != "trace-me-1" || tr.Endpoint != "label" || tr.Status != http.StatusOK {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.TotalNs <= 0 || tr.Pixels != 20 || tr.Bytes <= 0 {
		t.Fatalf("trace missing measurements: %+v", tr)
	}
	if tr.ScanNs < 0 || tr.QueueNs < 0 || tr.DecodeNs < 0 {
		t.Fatalf("negative phase duration: %+v", tr)
	}
	// A lone labeling is lent every CPU token.
	if tr.Threads != runtime.GOMAXPROCS(0) {
		t.Fatalf("trace threads = %d, want GOMAXPROCS = %d", tr.Threads, runtime.GOMAXPROCS(0))
	}

	if dresp, err = http.Get(dbg.URL + "/debug/requests?n=bogus"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ?n= status = %d, want 400", dresp.StatusCode)
	}

	if dresp, err = http.Get(dbg.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d, want 200", dresp.StatusCode)
	}
}

// syncWriter serializes slog output so the test can read the buffer while
// the server goroutine writes log lines.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestAccessLogFields(t *testing.T) {
	var out syncWriter
	obs := NewObs(slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelInfo})), 0)
	eng := NewEngine(Config{})
	srv := httptest.NewServer(NewHandler(eng, HandlerConfig{Obs: obs}))
	defer func() { srv.Close(); eng.Close() }()

	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The access line is emitted after the handler returns; the client can
	// observe the response a hair earlier, so poll briefly.
	var entry map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, line := range strings.Split(out.String(), "\n") {
			if line == "" {
				continue
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("access log line is not JSON: %q (%v)", line, err)
			}
			if m["msg"] == "request" && m["path"] == "/v1/label" {
				entry = m
			}
		}
		if entry != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if entry == nil {
		t.Fatalf("no access log line for /v1/label in:\n%s", out.String())
	}
	if entry["method"] != "POST" || entry["status"] != float64(http.StatusOK) {
		t.Fatalf("access entry = %v", entry)
	}
	if entry["alg"] != "paremsp" || entry["pixels"] != float64(20) || entry["threads"] != float64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("access entry missing alg/pixels/threads: %v", entry)
	}
	if id, _ := entry["id"].(string); len(id) != 16 {
		t.Fatalf("access entry id = %v, want generated 16-char ID", entry["id"])
	}
	if _, ok := entry["duration"]; !ok {
		t.Fatalf("access entry has no duration: %v", entry)
	}
}

// TestJobStatusTrace asserts the async job status embeds the timing trace
// derived from the store's transition timestamps.
func TestJobStatusTrace(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{}, jobs.Options{TTL: time.Minute})
	sub := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, pbmBody(t, testImage(t)))
	j := pollJob(t, srv.URL, sub.Jobs[0].ID, string(jobs.StateDone))
	if j.Trace == nil {
		t.Fatalf("done job has no trace: %+v", j)
	}
	if j.Trace.QueueWaitNs < 0 || j.Trace.RunNs <= 0 || j.Trace.TotalNs < j.Trace.RunNs {
		t.Fatalf("job trace = %+v", j.Trace)
	}
	if j.Trace.DecodeNs <= 0 {
		t.Fatalf("job trace missing decode time: %+v", j.Trace)
	}
	if j.Trace.Threads != runtime.GOMAXPROCS(0) {
		t.Fatalf("job trace threads = %d, want GOMAXPROCS = %d", j.Trace.Threads, runtime.GOMAXPROCS(0))
	}
}

// TestObservabilityStress hammers the instrumented surface from many
// goroutines at once — labeling, job submission and polling, metrics
// scrapes, and debug trace dumps — so `go test -race -run Observability`
// exercises the lock-free histograms, the trace ring, and the pooled
// request state under real contention.
func TestObservabilityStress(t *testing.T) {
	var logs syncWriter
	obs := NewObs(slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})), 64)
	store := newTestJobStore(t, jobs.Options{TTL: time.Minute})
	eng := NewEngine(Config{Workers: 4})
	h := NewHandler(eng, HandlerConfig{Jobs: store, Obs: obs})
	srv := httptest.NewServer(h)
	dbg := httptest.NewServer(NewDebugHandler(obs))
	defer func() { srv.Close(); dbg.Close(); eng.Close(); h.WaitJobs(); store.Close() }()

	body := pbmBody(t, testImage(t))
	const workers = 8
	const iters = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				case 1:
					resp := post(t, srv.URL+"/v1/jobs", ctPBM, "", body)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				case 2:
					resp, err := http.Get(srv.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				case 3:
					resp, err := http.Get(dbg.URL + "/debug/requests?n=20")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	if got := len(obs.ring.dump(0, "")); got == 0 {
		t.Fatal("stress run left no traces in the ring")
	}
}

func BenchmarkHistObserve(b *testing.B) {
	var h hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.observe(int64(i))
	}
}

func BenchmarkTraceRingPut(b *testing.B) {
	ring := newTraceRing(256)
	tr := Trace{ID: "bench", Method: "POST", Path: "/v1/label", TotalNs: 1234}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring.put(&tr)
	}
}
