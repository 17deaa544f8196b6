package service

import (
	"bufio"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
)

// metricValue scrapes /metrics and returns the value of one sample line,
// e.g. `ccserve_queue_wait_ns_count` or
// `ccserve_phase_duration_ns_count{phase="scan"}`; a missing sample is 0.
func metricValue(t *testing.T, base, series string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return n
		}
	}
	return 0
}

// accountingState is the slice of engine accounting the table test pins.
type accountingState struct {
	snap                Snapshot
	queueWaits, service int64
}

func readAccounting(t *testing.T, eng *Engine, base string) accountingState {
	t.Helper()
	return accountingState{
		snap:       eng.Snapshot(),
		queueWaits: metricValue(t, base, "ccserve_queue_wait_ns_count"),
		service:    metricValue(t, base, "ccserve_job_service_ns_count"),
	}
}

// TestEngineAccounting pins the engine's counting rules for every input
// type, on both the synchronous and the async job path: one admission is
// one request, a labeling adds its pixels (voxels) and components, borrows
// exactly its input, output and scratch buffers, and lands one queue-wait
// sample; only non-stream labelings land a service-time sample. A sync
// JSON labeling on the packed path folds its components from its runs and
// borrows no label map; its job keeps one.
func TestEngineAccounting(t *testing.T) {
	eng, _, srv := newJobsServer(t, Config{Workers: 1, Threads: 1}, jobs.Options{TTL: time.Hour})
	img := testImage(t)
	p4 := pbmBody(t, img)
	// The unpinned case's job would dedup to the alg=paremsp case's (an
	// unpinned job keys as paremsp), so it labels another image.
	other := paremsp.NewImage(6, 5)
	other.Pix[0], other.Pix[29] = 1, 1
	p4Other := pbmBody(t, other)
	grayB, grayImg := grayBody(t, 9, 7, 3)
	_, grayN := paremsp.LabelGray(grayImg)
	volB, vol := volumeBody(t, 6, 5, 4, 4)
	_, volN := paremsp.LabelVolume(vol)

	cases := []struct {
		name      string
		sync, job string // sync endpoint, and the /v1/jobs query
		ct        string
		body      []byte
		pixels    int64
		comps     int64
		pools     []string // borrowed once per labeling; every other pool untouched
		syncNoMap bool     // the sync labeling borrows no labelmap
		timed     bool     // lands a job_service_ns sample
	}{
		{"image", "/v1/label?alg=paremsp", "?alg=paremsp", ctPBM, p4, 20, 5, []string{"image", "labelmap", "scratch"}, false, true},
		{"bitmap", "/v1/label?alg=bremsp", "?alg=bremsp", ctPBM, p4, 20, 5, []string{"bitmap", "labelmap", "scratch"}, true, true},
		{"unpinned", "/v1/label", "", ctPBM, p4Other, 30, 2, []string{"bitmap", "labelmap", "scratch"}, true, true},
		{"gray", "/v1/label?mode=gray", "?kind=gray", ctPGM, grayB, 63, int64(grayN), []string{"gray", "labelmap", "scratch"}, false, true},
		{"volume", "/v1/volume", "?kind=volume", ctPGM, volB, 120, int64(volN), []string{"volume", "labelvol", "scratch"}, false, true},
		{"stream", "/v1/stats", "?kind=stats", ctPBM, p4, 20, 5, nil, false, false},
	}
	for _, tc := range cases {
		for _, path := range []string{"sync", "job"} {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				pools := tc.pools
				if path == "sync" && tc.syncNoMap {
					pools = slices.DeleteFunc(slices.Clone(pools), func(p string) bool { return p == "labelmap" })
				}
				before := readAccounting(t, eng, srv.URL)
				if path == "sync" {
					resp := post(t, srv.URL+tc.sync, tc.ct, ctJSON, tc.body)
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d: %s", resp.StatusCode, raw)
					}
				} else {
					out := submitJobs(t, srv.URL+"/v1/jobs"+tc.job, tc.ct, tc.body)
					if out.Jobs[0].Dedup {
						t.Fatal("submission dedup'd; the case would not reach the engine")
					}
					pollJob(t, srv.URL, out.Jobs[0].ID, string(jobs.StateDone))
				}
				after := readAccounting(t, eng, srv.URL)
				b, a := before.snap, after.snap
				for _, d := range []struct {
					what      string
					got, want int64
				}{
					{"requests", a.Requests - b.Requests, 1},
					{"completed", a.Completed - b.Completed, 1},
					{"errors", a.Errors - b.Errors, 0},
					{"rejected", a.Rejected - b.Rejected, 0},
					{"pixels", a.Pixels - b.Pixels, tc.pixels},
					{"components", a.Components - b.Components, tc.comps},
					{"queue_wait_ns count", after.queueWaits - before.queueWaits, 1},
					{"job_service_ns count", after.service - before.service, map[bool]int64{true: 1}[tc.timed]},
				} {
					if d.got != d.want {
						t.Errorf("%s delta = %d, want %d", d.what, d.got, d.want)
					}
				}
				for i, p := range a.Pools {
					want := int64(0)
					for _, name := range pools {
						if name == p.Name {
							want = 1
						}
					}
					if got := p.Gets - b.Pools[i].Gets; got != want {
						t.Errorf("pool %s gets delta = %d, want %d", p.Name, got, want)
					}
				}
			})
		}
	}

	// A 3-part batch whose third part repeats the first: the dedup hit never
	// reaches the engine, so exactly two admissions are counted.
	t.Run("batch-dedup", func(t *testing.T) {
		before := eng.Snapshot().Requests
		a, b := pbmBody(t, chaosImage(101)), pbmBody(t, chaosImage(102))
		ct, body := multipartBody(t, a, b, a)
		out := submitJobs(t, srv.URL+"/v1/jobs", ct, body)
		if len(out.Jobs) != 3 || !out.Jobs[2].Dedup || out.Jobs[2].ID != out.Jobs[0].ID {
			t.Fatalf("batch = %+v, want the third part to dedup onto the first", out.Jobs)
		}
		for _, j := range out.Jobs[:2] {
			pollJob(t, srv.URL, j.ID, string(jobs.StateDone))
		}
		if got := eng.Snapshot().Requests - before; got != 2 {
			t.Fatalf("requests_total delta = %d, want 2", got)
		}
	})
}

// TestPhaseHistogramsSkipUnphasedKernels: every REMSP labeling — binary,
// gray and volume — lands one sample in each phase histogram, the
// baselines and the band stream, which time no phases, land none (never a
// 0 ns sample), and a count-only labeling, which stops after FLATTEN, none
// in the relabel histogram: a JSON labeling without components, and one on
// the packed path (unpinned or alg=pbremsp), whose run kernel folds its
// components from its runs and writes no map. The response-shaping layers
// land one sample each when they run: components for every JSON labeling
// with components, whatever the labeler, and contours for a contours
// request.
func TestPhaseHistogramsSkipUnphasedKernels(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	series := [...]string{
		`ccserve_phase_duration_ns_count{phase="scan"}`,
		`ccserve_phase_duration_ns_count{phase="relabel"}`,
		`ccserve_phase_duration_ns_count{phase="components"}`,
		`ccserve_phase_duration_ns_count{phase="contours"}`,
	}
	grayB, _ := grayBody(t, 9, 7, 5)
	volB, _ := volumeBody(t, 9, 7, 5, 6)
	pbm := pbmBody(t, testImage(t))
	for _, tc := range []struct {
		path string
		ct   string
		body []byte
		want [len(series)]int64 // scan, relabel, components, contours samples
	}{
		{"/v1/label?alg=aremsp", ctPBM, pbm, [...]int64{1, 1, 1, 0}},
		{"/v1/label?alg=cclremsp", ctPBM, pbm, [...]int64{1, 1, 1, 0}},
		{"/v1/label?mode=gray", ctPGM, grayB, [...]int64{1, 1, 1, 0}},
		{"/v1/label?mode=gray-delta&delta=40", ctPGM, grayB, [...]int64{1, 1, 1, 0}},
		{"/v1/volume", ctPGM, volB, [...]int64{1, 1, 1, 0}},
		{"/v1/label?alg=floodfill", ctPBM, pbm, [...]int64{0, 0, 1, 0}},
		{"/v1/stats", ctPBM, pbm, [...]int64{0, 0, 0, 0}},
		{"/v1/label?alg=paremsp", ctPBM, pbm, [...]int64{1, 1, 1, 0}},
		{"/v1/label?alg=paremsp&components=false", ctPBM, pbm, [...]int64{1, 0, 0, 0}},
		{"/v1/label", ctPBM, pbm, [...]int64{1, 0, 1, 0}},
		{"/v1/label?alg=pbremsp", ctPBM, pbm, [...]int64{1, 0, 1, 0}},
		{"/v1/label?contours=true", ctPBM, pbm, [...]int64{1, 1, 1, 1}},
	} {
		var before [len(series)]int64
		for i, s := range series {
			before[i] = metricValue(t, srv.URL, s)
		}
		resp := post(t, srv.URL+tc.path, tc.ct, ctJSON, tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, resp.StatusCode)
		}
		for i, s := range series {
			if got := metricValue(t, srv.URL, s) - before[i]; got != tc.want[i] {
				t.Errorf("%s: %s delta = %d, want %d", tc.path, s, got, tc.want[i])
			}
		}
	}
}
