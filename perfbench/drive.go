package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"sort"
	"sync"
	"time"
)

// pollInterval is how often a jobs-async client polls a pending job.
const pollInterval = 5 * time.Millisecond

// tally is one client's record of a timed window (or of a warm-up).
type tally struct {
	latMs     []float64 // successful operations only
	px        int64     // input pixels (voxels) of successful operations
	attempted int
	failed    int // HTTP errors, refusals, failed or canceled jobs, wrong answers
	wrong     int // responses that disagree with the oracle
	labelings int // engine submissions the client caused
	errs      []string
}

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.latMs = append(t.latMs, o.latMs...)
	t.px += o.px
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.labelings += o.labelings
	t.errs = append(t.errs, o.errs...)
}

// request describes the HTTP call of one request type.
func request(base, typ string, b *body) (*http.Request, error) {
	path, accept := "/v1/label", ""
	switch typ {
	case rqNoComp:
		path += "?components=false"
	case rqLevel:
		path += fmt.Sprintf("?level=%g", p5Level)
	case rqContours:
		path += "?contours=true"
	case rqCCL:
		accept = "application/x-ccl"
	case rqPGM:
		accept = ctPGM
	case rqGray:
		path += "?mode=gray"
	case rqStats:
		path = "/v1/stats"
	case rqVolume:
		path = "/v1/volume"
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(b.data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", b.ctype)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return req, nil
}

// fetch performs req and reads the whole response into buf. The latency
// runs from handing the request to the client (a kept-alive connection
// writes its first byte right away) to the last response byte read.
func fetch(hc *http.Client, req *http.Request, buf *bytes.Buffer) (int, time.Duration, error) {
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// warmSync sends every distinct request of a sync workload once and
// checks each answer in full against the oracle. It returns the PGM
// responses, which later responses must equal. label-large's requests
// omit components, so each of its rasters is also fetched as CCL1 and
// read back for the partition check.
func warmSync(hc *http.Client, base string, in *inputs, t *tally) map[*body][]byte {
	refs := map[*body][]byte{}
	var buf bytes.Buffer
	call := func(typ string, b *body) {
		t.attempted++
		req, err := request(base, typ, b)
		if err != nil {
			t.fail(false, "%s: %v", typ, err)
			return
		}
		status, _, err := fetch(hc, req, &buf)
		if err != nil || status != http.StatusOK {
			t.fail(false, "warm-up %s %s: status %d, %v: %.200s", typ, b.r.name, status, err, buf.Bytes())
			return
		}
		if err := fullCheck(typ, b, buf.Bytes()); err != nil {
			t.fail(true, "warm-up %s %s: %v", typ, b.r.name, err)
			return
		}
		if typ == rqPGM {
			refs[b] = bytes.Clone(buf.Bytes())
		}
	}
	// Largest rasters first: the server's pooled buffers then reach their
	// final size on the first request instead of being outgrown (and left
	// to the GC) one size at a time, so peak RSS does not depend on when
	// the GC ran during warm-up.
	var distinct []op
	seen := map[op]bool{}
	for _, o := range in.ops {
		if !seen[o] {
			seen[o] = true
			distinct = append(distinct, o)
		}
	}
	sort.SliceStable(distinct, func(i, j int) bool { return distinct[i].b.r.px > distinct[j].b.r.px })
	for _, o := range distinct {
		if o.typ == rqNoComp {
			call(rqCCL, o.b)
		}
		call(o.typ, o.b)
	}
	return refs
}

// runSync drives a sync workload: each client walks the request rotation
// from its own offset in a closed loop until the window ends, starting no
// request after it.
func runSync(ctx context.Context, hc *http.Client, base string, in *inputs, refs map[*body][]byte, clients int, window time.Duration) []*tally {
	out := make([]*tally, clients)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		t := &tally{}
		out[c] = t
		k := c * len(in.ops) / clients
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				o := in.ops[k%len(in.ops)]
				t.attempted++
				t.labelings++
				req, err := request(base, o.typ, o.b)
				if err != nil {
					t.fail(false, "%s: %v", o.typ, err)
					continue
				}
				status, lat, err := fetch(hc, req, &buf)
				if err != nil || status != http.StatusOK {
					t.fail(false, "%s %s: status %d, %v: %.200s", o.typ, o.b.r.name, status, err, buf.Bytes())
					continue
				}
				if err := quickCheck(o.typ, o.b, buf.Bytes(), refs[o.b]); err != nil {
					t.fail(true, "%s %s: %v", o.typ, o.b.r.name, err)
					continue
				}
				t.latMs = append(t.latMs, ms(lat))
				t.px += o.b.r.px
			}
		}()
	}
	wg.Wait()
	return out
}

// batch is one prebuilt multipart POST /v1/jobs body.
type batch struct {
	set   jobSet
	data  []byte
	ctype string
}

func newBatch(s jobSet) batch {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, b := range s.parts {
		h := textproto.MIMEHeader{}
		h.Set("Content-Disposition", fmt.Sprintf(`form-data; name="image"; filename="part%d"`, i))
		h.Set("Content-Type", b.ctype)
		w, err := mw.CreatePart(h)
		if err == nil {
			_, err = w.Write(b.data)
		}
		if err != nil {
			panic(err) // writes to a bytes.Buffer cannot fail
		}
	}
	mw.Close()
	return batch{set: s, data: buf.Bytes(), ctype: mw.FormDataContentType()}
}

type jobJSON struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Dedup bool   `json:"dedup"`
	Error string `json:"error"`
}

// jobClient runs jobs-async cycles for one client.
type jobClient struct {
	hc      *http.Client
	base    string
	batches []batch
	buf     bytes.Buffer
}

// cycle submits one batch, polls each job to a terminal state, fetches
// and checks every result, and deletes the fresh jobs. With warm the
// repeated part is fresh too and results are checked in full; otherwise
// the repeated part must be a dedup hit.
func (jc *jobClient) cycle(bt batch, t *tally, warm bool) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, jc.base+"/v1/jobs?kind="+bt.set.kind, bytes.NewReader(bt.data))
	if err != nil {
		t.fail(false, "%v", err)
		return
	}
	req.Header.Set("Content-Type", bt.ctype)
	t.attempted += len(bt.set.parts)
	status, _, err := fetch(jc.hc, req, &jc.buf)
	if err != nil || status != http.StatusAccepted {
		for range bt.set.parts {
			t.fail(false, "submit %s: status %d, %v: %.200s", bt.set.kind, status, err, jc.buf.Bytes())
		}
		return
	}
	var sub struct{ Jobs []jobJSON }
	if err := json.Unmarshal(jc.buf.Bytes(), &sub); err != nil || len(sub.Jobs) != len(bt.set.parts) {
		for range bt.set.parts {
			t.fail(false, "submit %s: %d jobs, %v", bt.set.kind, len(sub.Jobs), err)
		}
		return
	}
	pending := make([]bool, len(sub.Jobs)) // polled in part order
	left := 0
	for i, j := range sub.Jobs {
		if !j.Dedup {
			t.labelings++
		}
		if repeated := i == len(sub.Jobs)-1 && !warm; j.Dedup != repeated {
			t.fail(true, "%s part %d: dedup=%v, want %v", bt.set.kind, i, j.Dedup, repeated)
			continue
		}
		pending[i] = true
		left++
	}
	for {
		for i, j := range sub.Jobs {
			if !pending[i] {
				continue
			}
			switch j.State {
			case "done":
				jc.result(bt, i, j, start, t, warm)
			case "failed", "canceled":
				t.fail(false, "%s job %s %s: %s", bt.set.kind, j.ID, j.State, j.Error)
				jc.remove(j.ID, t)
			default:
				continue
			}
			pending[i] = false
			left--
		}
		if left == 0 {
			return
		}
		time.Sleep(pollInterval)
		for i := range sub.Jobs {
			if !pending[i] {
				continue
			}
			j := &sub.Jobs[i]
			status, _, err := fetch(jc.hc, mustGet(jc.base+"/v1/jobs/"+j.ID), &jc.buf)
			if err != nil || status != http.StatusOK || json.Unmarshal(jc.buf.Bytes(), j) != nil {
				t.fail(false, "status of %s job %s: %d %v", bt.set.kind, j.ID, status, err)
				pending[i] = false
				left--
			}
		}
	}
}

// result fetches and checks a done job's result, then deletes the job
// unless it is the kept (repeated) one.
func (jc *jobClient) result(bt batch, i int, j jobJSON, start time.Time, t *tally, warm bool) {
	b := bt.set.parts[i]
	status, _, err := fetch(jc.hc, mustGet(jc.base+"/v1/jobs/"+j.ID+"/result"), &jc.buf)
	lat := time.Since(start)
	switch {
	case err != nil || status != http.StatusOK:
		t.fail(false, "result of %s job %s: status %d, %v", bt.set.kind, j.ID, status, err)
	case warm:
		if err := fullCheck(bt.set.kind, b, jc.buf.Bytes()); err != nil {
			t.fail(true, "warm-up %s %s: %v", bt.set.kind, b.r.name, err)
		} else if bt.set.kind == "labels" {
			jc.checkCCL(j.ID, b, t)
		}
	default:
		if err := quickCheck(bt.set.kind, b, jc.buf.Bytes(), nil); err != nil {
			t.fail(true, "%s %s: %v", bt.set.kind, b.r.name, err)
		} else {
			t.latMs = append(t.latMs, ms(lat))
			t.px += b.r.px
		}
	}
	if i < len(bt.set.parts)-1 {
		jc.remove(j.ID, t)
	}
}

// checkCCL reads a labels job's result back as CCL1 for the partition
// check.
func (jc *jobClient) checkCCL(id string, b *body, t *tally) {
	req := mustGet(jc.base + "/v1/jobs/" + id + "/result")
	req.Header.Set("Accept", "application/x-ccl")
	status, _, err := fetch(jc.hc, req, &jc.buf)
	if err != nil || status != http.StatusOK {
		t.fail(false, "CCL1 result of %s: status %d, %v", id, status, err)
		return
	}
	if err := fullCheck(rqCCL, b, jc.buf.Bytes()); err != nil {
		t.fail(true, "warm-up labels %s as CCL1: %v", b.r.name, err)
	}
}

func (jc *jobClient) remove(id string, t *tally) {
	req, _ := http.NewRequest(http.MethodDelete, jc.base+"/v1/jobs/"+id, nil)
	status, _, err := fetch(jc.hc, req, &jc.buf)
	if err != nil || status != http.StatusNoContent {
		t.fail(false, "DELETE %s: status %d, %v", id, status, err)
	}
}

func mustGet(url string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		panic(err) // the URL is built from a parsed base and a job ID
	}
	return req
}

// newJobClients prebuilds each client's batches.
func newJobClients(hc *http.Client, base string, in *inputs) []*jobClient {
	out := make([]*jobClient, len(in.jobs))
	for c, sets := range in.jobs {
		jc := &jobClient{hc: hc, base: base}
		for _, s := range sets {
			jc.batches = append(jc.batches, newBatch(s))
		}
		out[c] = jc
	}
	return out
}

// warmJobs runs every client's batches once with all parts fresh, checks
// every result in full, and keeps each repeated part's finished job.
func warmJobs(jcs []*jobClient, t *tally) {
	for _, jc := range jcs {
		for _, bt := range jc.batches {
			jc.cycle(bt, t, true)
		}
	}
}

// runJobs drives jobs-async: each client cycles through its batches in a
// closed loop until the window ends, starting no batch after it.
func runJobs(ctx context.Context, jcs []*jobClient, window time.Duration) []*tally {
	out := make([]*tally, len(jcs))
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c, jc := range jcs {
		t := &tally{}
		out[c] = t
		k := c // clients start on different kinds
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				jc.cycle(jc.batches[k%len(jc.batches)], t, false)
			}
		}()
	}
	wg.Wait()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
