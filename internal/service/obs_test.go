package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
	"repro/internal/pnm"
)

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h hist
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
}

func TestWritePromHistCumulative(t *testing.T) {
	var h hist
	for _, v := range []int64{0, 1, 1, 5, 5, 5, 900} {
		h.observe(v)
	}
	var buf bytes.Buffer
	pw := &promWriter{w: &buf}
	if pw.hist("x_ns", "help text.", []histSeries{{h: &h}}); pw.err != nil {
		t.Fatal(pw.err)
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

// failWriter fails every write and counts the attempts.
type failWriter struct{ calls int }

func (w *failWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, errors.New("scraper gone")
}

// TestPromWriterStopsAtFirstError: after a failed write the exposition
// writes nothing more, in every section, and keeps that first error.
func TestPromWriterStopsAtFirstError(t *testing.T) {
	var h hist
	h.observe(5)
	fw := &failWriter{}
	pw := &promWriter{w: fw}
	pw.metrics([]promMetric{{"counter", "a_total", "a.", 1}, {"gauge", "b", "b.", 2}})
	pw.labeled("counter", "c_total", "c.", []promSeries{{labels: `k="v"`, v: 3}})
	pw.hist("x_ns", "x.", []histSeries{{h: &h}})
	writeRuntimeMetrics(pw)
	if fw.calls != 1 || pw.err == nil {
		t.Fatalf("%d writes, err %v; want 1 write and its error", fw.calls, pw.err)
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
		"ccserve_jobs_submitted_total",
		"ccserve_pool_get_total", "ccserve_pool_miss_total", "ccserve_labelings_total",
		"ccserve_worker_busy_ns_total",
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
	// The unpinned binary traffic above decoded packed and borrowed from the
	// bitmap, labelmap and scratch pools; their get counters must be live
	// (the image pool stays 0 — no byte algorithm was pinned), and the
	// labelings count under the kernel that ran them.
	for _, pool := range []string{"bitmap", "labelmap", "scratch"} {
		if !regexp.MustCompile(`ccserve_pool_get_total\{pool="` + pool + `"\} [1-9]`).MatchString(text) {
			t.Fatalf("pool %s recorded no gets:\n%s", pool, text)
		}
	}
	if !regexp.MustCompile(`ccserve_labelings_total\{alg="pbremsp"\} 4\n`).MatchString(text) {
		t.Fatalf("the four unpinned labelings are not counted under pbremsp:\n%s", text)
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
	for _, field := range []string{"queue_wait;dur=", "decode;dur=", "scan;dur=", "merge;dur=", "flatten;dur=", "relabel;dur=",
		"components;dur=", "contours;dur=", "total;dur="} {
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

// accessLine returns the JSON access line of the request with the given
// ID. The line is emitted after the handler returns; the client can observe
// the response a hair earlier, so it polls briefly.
func accessLine(t *testing.T, out *syncWriter, id string) map[string]any {
	t.Helper()
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
			if m["msg"] == "request" && (m["id"] == id || id == "" && m["path"] == "/v1/label") {
				return m
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access log line for request %q in:\n%s", id, out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// layerKeys are the trace's layer fields, as the access line names them.
var layerKeys = []string{"decode_ns", "queue_wait_ns", "scan_ns", "merge_ns", "flatten_ns", "relabel_ns",
	"components_ns", "contours_ns", "encode_ns"}

// checkLayerFields wants every nonzero layer time of tr on the access line
// with the same value, and no zero one.
func checkLayerFields(t *testing.T, entry map[string]any, tr Trace) {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range layerKeys {
		if got, want := entry[k], fields[k]; want == float64(0) && got != nil || want != float64(0) && got != want {
			t.Errorf("access line %s = %v, trace says %v", k, got, want)
		}
	}
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

	entry := accessLine(t, &out, "")
	if entry["method"] != "POST" || entry["status"] != float64(http.StatusOK) {
		t.Fatalf("access entry = %v", entry)
	}
	if entry["alg"] != "pbremsp" || entry["pixels"] != float64(20) || entry["threads"] != float64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("access entry missing alg/pixels/threads: %v", entry)
	}
	id, _ := entry["id"].(string)
	if len(id) != 16 {
		t.Fatalf("access entry id = %v, want generated 16-char ID", entry["id"])
	}
	if _, ok := entry["duration"]; !ok {
		t.Fatalf("access entry has no duration: %v", entry)
	}
	// The default JSON labeling decodes, scans, folds its components from
	// its runs and encodes; it writes no label map, so it never relabels,
	// and it traces no contours.
	for _, k := range []string{"decode_ns", "scan_ns", "components_ns", "encode_ns"} {
		if ns, _ := entry[k].(float64); ns <= 0 {
			t.Errorf("access entry %s = %v, want > 0: %v", k, entry[k], entry)
		}
	}
	for _, k := range []string{"relabel_ns", "contours_ns"} {
		if _, ok := entry[k]; ok {
			t.Errorf("access entry has %s for a default JSON labeling: %v", k, entry)
		}
	}
	checkLayerFields(t, entry, obs.ring.dump(1, id)[0])

	// A CCL1 answer is the label map itself, so its labeling relabels.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/label", bytes.NewReader(pbmBody(t, testImage(t))))
	req.Header.Set("Content-Type", ctPBM)
	req.Header.Set("Accept", ctCCL)
	req.Header.Set(headerRequestID, "access-ccl1")
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	ccl := accessLine(t, &out, "access-ccl1")
	if ns, _ := ccl["relabel_ns"].(float64); cresp.StatusCode != http.StatusOK || ns <= 0 {
		t.Errorf("CCL1 access entry (status %d) relabel_ns = %v, want > 0: %v", cresp.StatusCode, ccl["relabel_ns"], ccl)
	}
	// Server-Timing names each layer as the access line does, less "_ns".
	for _, e := range strings.Split(resp.Header.Get("Server-Timing"), ", ") {
		name, _, _ := strings.Cut(e, ";")
		if name != "total" && !slices.Contains(layerKeys, name+"_ns") {
			t.Errorf("Server-Timing entry %q names no access-line key", e)
		}
	}
}

// TestShapingTimesInTrace: the component summaries and the contour trace
// run between the labeling and the encode, and the request's trace, its
// Server-Timing and its access line time them; a count-only request runs
// neither. The default JSON labeling folds its components from its runs
// and writes no map: components but no relabel.
func TestShapingTimesInTrace(t *testing.T) {
	var out syncWriter
	obs := NewObs(slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelInfo})), 0)
	eng := NewEngine(Config{})
	srv := httptest.NewServer(NewHandler(eng, HandlerConfig{Obs: obs}))
	dbg := httptest.NewServer(NewDebugHandler(obs))
	defer func() { srv.Close(); dbg.Close(); eng.Close() }()

	body := pbmBody(t, testImage(t))
	for _, c := range []struct {
		id, query string
		shaped    bool
	}{
		{"shape-contours", "?contours=true", true},
		{"shape-count-only", "?components=false", false},
		{"shape-default", "", true},
	} {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/label"+c.query, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctPBM)
		req.Header.Set(headerRequestID, c.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.id, resp.StatusCode)
		}
		st := resp.Header.Get("Server-Timing")
		if !strings.Contains(st, "components;dur=") || !strings.Contains(st, "contours;dur=") {
			t.Fatalf("%s: Server-Timing %q lacks components or contours", c.id, st)
		}

		dresp, err := http.Get(dbg.URL + "/debug/requests?id=" + c.id)
		if err != nil {
			t.Fatal(err)
		}
		var traces []Trace
		if err := json.NewDecoder(dresp.Body).Decode(&traces); err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if len(traces) != 1 {
			t.Fatalf("%s: %d traces, want 1", c.id, len(traces))
		}
		tr := traces[0]
		contours := c.query == "?contours=true"
		if c.shaped && (tr.ComponentsNs <= 0 || contours && tr.ContoursNs <= 0 || tr.EncodeNs <= 0) {
			t.Fatalf("%s: trace components/contours/encode = %d/%d/%d ns, want all > 0", c.id, tr.ComponentsNs, tr.ContoursNs, tr.EncodeNs)
		}
		if c.shaped && !contours && (tr.ContoursNs != 0 || tr.RelabelNs != 0) {
			t.Fatalf("%s: trace contours/relabel = %d/%d ns, want 0/0", c.id, tr.ContoursNs, tr.RelabelNs)
		}
		if !c.shaped && (tr.ComponentsNs != 0 || tr.ContoursNs != 0 || tr.EncodeNs <= 0) {
			t.Fatalf("%s: trace components/contours/encode = %d/%d/%d ns, want 0/0/>0", c.id, tr.ComponentsNs, tr.ContoursNs, tr.EncodeNs)
		}
		checkLayerFields(t, accessLine(t, &out, c.id), tr)
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
	// The trace names the kernel that ran: the packed kernel for an
	// unpinned binary job, the pinned algorithm otherwise, the band
	// labeler for a stats job.
	if j.Trace.Alg != "pbremsp" {
		t.Fatalf("unpinned labels job trace alg = %q, want pbremsp", j.Trace.Alg)
	}
	for query, want := range map[string]string{"?alg=aremsp": "aremsp", "?kind=stats": "band"} {
		sub := submitJobs(t, srv.URL+"/v1/jobs"+query, ctPBM, pbmBody(t, testImage(t)))
		if j := pollJob(t, srv.URL, sub.Jobs[0].ID, string(jobs.StateDone)); j.Trace == nil || j.Trace.Alg != want {
			t.Fatalf("%s job trace = %+v, want alg %q", query, j.Trace, want)
		}
	}
	// The queue wait is the engine's own: on an idle engine it is far
	// shorter than a decode that takes milliseconds, which it must not
	// include.
	stripes := paremsp.NewGrayImage(2048, 2048)
	for i := range stripes.Pix {
		stripes.Pix[i] = uint8(i / 64 % 2 * 255)
	}
	var pgm bytes.Buffer
	if err := pnm.EncodeGrayPGM(&pgm, stripes); err != nil {
		t.Fatal(err)
	}
	sub = submitJobs(t, srv.URL+"/v1/jobs", ctPGM, pgm.Bytes())
	if j := pollJob(t, srv.URL, sub.Jobs[0].ID, string(jobs.StateDone)); j.Trace == nil || j.Trace.QueueWaitNs >= j.Trace.DecodeNs {
		t.Fatalf("job trace = %+v, want queue_wait_ns < decode_ns", j.Trace)
	}
	// A record written before the summary carried the wait keeps start
	// minus submission.
	created := time.Now()
	old := jobJSONFrom(jobs.Job{State: jobs.StateDone, Created: created, Started: created.Add(time.Millisecond),
		Finished: created.Add(2 * time.Millisecond), Info: &jobs.ResultInfo{DecodeNs: 1}}, false)
	if old.Trace == nil || old.Trace.QueueWaitNs != time.Millisecond.Nanoseconds() {
		t.Fatalf("job trace without a recorded wait = %+v, want queue_wait_ns 1ms", old.Trace)
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
