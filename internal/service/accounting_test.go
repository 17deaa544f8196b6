package service

import (
	"bufio"
	"io"
	"net/http"
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
// sample; only non-stream labelings land a service-time sample.
func TestEngineAccounting(t *testing.T) {
	eng, _, srv := newJobsServer(t, Config{Workers: 1, Threads: 1}, jobs.Options{TTL: time.Hour})
	img := testImage(t)
	p4 := pbmBody(t, img)
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
		timed     bool     // lands a job_service_ns sample
	}{
		{"image", "/v1/label", "", ctPBM, p4, 20, 5, []string{"image", "labelmap", "scratch"}, true},
		{"bitmap", "/v1/label?alg=bremsp", "?alg=bremsp", ctPBM, p4, 20, 5, []string{"bitmap", "labelmap", "scratch"}, true},
		{"gray", "/v1/label?mode=gray", "?kind=gray", ctPGM, grayB, 63, int64(grayN), []string{"gray", "labelmap", "scratch"}, true},
		{"volume", "/v1/volume", "?kind=volume", ctPGM, volB, 120, int64(volN), []string{"volume", "labelvol", "scratch"}, true},
		{"stream", "/v1/stats", "?kind=stats", ctPBM, p4, 20, 5, nil, false},
	}
	for _, tc := range cases {
		for _, path := range []string{"sync", "job"} {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
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
					for _, name := range tc.pools {
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

// TestPhaseHistogramsSkipUnphasedKernels: only the parallel kernels
// (PAREMSP, PBREMSP) time their phases, so a sequential or gray labeling
// must not land a 0 ns sample in the phase histograms.
func TestPhaseHistogramsSkipUnphasedKernels(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	const series = `ccserve_phase_duration_ns_count{phase="scan"}`
	grayB, _ := grayBody(t, 9, 7, 5)
	for _, tc := range []struct {
		path string
		ct   string
		body []byte
		want int64
	}{
		{"/v1/label?alg=aremsp", ctPBM, pbmBody(t, testImage(t)), 0},
		{"/v1/label?mode=gray", ctPGM, grayB, 0},
		{"/v1/label?alg=paremsp", ctPBM, pbmBody(t, testImage(t)), 1},
	} {
		before := metricValue(t, srv.URL, series)
		resp := post(t, srv.URL+tc.path, tc.ct, ctJSON, tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.path, resp.StatusCode)
		}
		if got := metricValue(t, srv.URL, series) - before; got != tc.want {
			t.Errorf("%s: scan-phase samples delta = %d, want %d", tc.path, got, tc.want)
		}
	}
}
