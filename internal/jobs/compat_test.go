package jobs

import (
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/band"
	"repro/internal/binimg"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/stats"
)

// storeFixture is a store directory written by an earlier release of this
// package. Regenerate it only when the on-disk format changes on purpose:
//
//	go test ./internal/jobs -run TestStoreFixtureOpens -write-fixture
const storeFixture = "testdata/store"

var writeFixture = flag.Bool("write-fixture", false, "rewrite "+storeFixture+" with the current code")

// fixtureEpoch is the fixed clock the fixture was written at and is
// reopened at, so no job in it ever expires.
var fixtureEpoch = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// fixtureJob is one job of the fixture store and how it ended.
type fixtureJob struct {
	id     string
	kind   Kind
	params Params
	input  []byte
	// end is the terminal state; StateQueued leaves the job queued with its
	// input persisted.
	end    State
	err    string
	result *Result
}

func fixtureLabelMap() *binimg.LabelMap {
	return &binimg.LabelMap{Width: 4, Height: 2, L: []binimg.Label{1, 1, 0, 2, 0, 1, 0, 2}}
}

func fixtureComponents() []stats.Component {
	return []stats.Component{
		{Label: 1, Area: 3, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, CentroidX: 2.0 / 3, CentroidY: 1.0 / 3},
		{Label: 2, Area: 2, MinX: 3, MinY: 0, MaxX: 3, MaxY: 1, CentroidX: 3, CentroidY: 0.5},
	}
}

// fixtureJobs lists the fixture's jobs: a done job of every kind (gray in
// both of its modes), a failed, a canceled and a queued one.
func fixtureJobs() []fixtureJob {
	info := ResultInfo{NumComponents: 2, Width: 4, Height: 2, Density: 0.625, DecodeNs: 1500,
		Phases: core.PhaseTimes{Scan: 10, Merge: 20, Flatten: 30, Relabel: 40}}
	p4 := []byte("P4\n4 2\n\xd0\x50")
	p5 := []byte("P5\n4 2\n255\n\x00\x00\x80\x80\x00\xff\xff\x80")
	return []fixtureJob{
		{id: "done-labels", kind: KindLabels, params: Params{Alg: "paremsp", Conn: 8, Threads: 2, ContentType: "image/x-portable-bitmap"},
			input: p4, end: StateDone,
			result: &Result{ResultInfo: info, Labels: fixtureLabelMap(), Components: fixtureComponents()}},
		{id: "done-stats", kind: KindStats, params: Params{Alg: "stream", Level: 0.5, BandRows: 64, ContentType: "image/x-portable-graymap"},
			input: p5, end: StateDone,
			result: &Result{ResultInfo: ResultInfo{NumComponents: 2, Width: 4, Height: 2, BandRows: 64}, Stats: &band.Result{
				Width: 4, Height: 2, NumComponents: 2, ForegroundPixels: 5,
				Components: []band.ComponentStats{
					{Label: 1, Area: 3, MaxX: 1, MaxY: 1, CentroidX: 2.0 / 3, CentroidY: 1.0 / 3, Runs: 2},
					{Label: 2, Area: 2, MinX: 3, MaxX: 3, MaxY: 1, CentroidX: 3, CentroidY: 0.5, Runs: 2},
				}}}},
		{id: "done-contours", kind: KindContours, params: Params{Alg: "bremsp", Conn: 4},
			input: p4, end: StateDone,
			result: &Result{ResultInfo: info, Labels: fixtureLabelMap(), Components: fixtureComponents(),
				Contours: []contour.Contour{
					{Label: 1, Points: []contour.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}},
					{Label: 2, Points: []contour.Point{{X: 3, Y: 0}, {X: 3, Y: 1}}},
				}}},
		{id: "done-gray", kind: KindGray, params: Params{Alg: "paremsp", Mode: "gray", ContentType: "image/x-portable-graymap"},
			input: p5, end: StateDone,
			result: &Result{ResultInfo: info, Labels: fixtureLabelMap(), Components: fixtureComponents()}},
		{id: "done-gray-delta", kind: KindGray, params: Params{Mode: "gray-delta", Delta: 12, ContentType: "image/x-portable-graymap"},
			input: p5, end: StateDone,
			result: &Result{ResultInfo: info, Labels: fixtureLabelMap(), Components: fixtureComponents()}},
		{id: "done-volume", kind: KindVolume, params: Params{Alg: "paremsp", Mode: "volume", Level: 0.5},
			input: append(append([]byte{}, p5...), p5...), end: StateDone,
			result: &Result{ResultInfo: ResultInfo{NumComponents: 3, Width: 4, Height: 2, Depth: 2, Density: 0.5},
				VolumeSizes: []int{3, 2, 1}}},
		{id: "failed", kind: KindLabels, params: Params{Alg: "aremsp"}, input: []byte("not an image"),
			end: StateFailed, err: "decode: unsupported image format"},
		{id: "canceled", kind: KindStats, params: Params{Level: 0.25}, input: p5,
			end: StateCanceled, err: "context canceled"},
		{id: "queued", kind: KindLabels, params: Params{Alg: "pbremsp", Threads: 4, ContentType: "image/x-portable-bitmap"},
			input: p4, end: StateQueued},
	}
}

// writeStoreFixture writes the fixture jobs into a fresh store under dir.
func writeStoreFixture(t *testing.T, dir string) {
	t.Helper()
	clk := &fakeClock{t: fixtureEpoch}
	s := openDurable(t, dir, clk, Options{})
	defer s.Close()
	for _, f := range fixtureJobs() {
		j, _ := s.CreateOrGet(f.id, f.kind, f.params, f.input)
		clk.Advance(time.Second)
		if f.end != StateQueued {
			s.Start(f.id, j.Gen)
			clk.Advance(time.Second)
		}
		switch f.end {
		case StateDone:
			s.Complete(f.id, j.Gen, f.result)
		case StateFailed:
			s.Fail(f.id, j.Gen, errors.New(f.err))
		case StateCanceled:
			s.Cancel(f.id, j.Gen, errors.New(f.err))
		}
	}
}

// TestStoreFixtureOpens opens a store directory written by an earlier
// release: the journal, the result blobs and the pending input must all
// read back unchanged.
func TestStoreFixtureOpens(t *testing.T) {
	if *writeFixture {
		if err := os.RemoveAll(storeFixture); err != nil {
			t.Fatal(err)
		}
		writeStoreFixture(t, storeFixture)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(storeFixture)); err != nil {
		t.Fatal(err)
	}
	s := openDurable(t, dir, &fakeClock{t: fixtureEpoch}, Options{})
	defer s.Close()

	var queued fixtureJob
	for _, f := range fixtureJobs() {
		j, ok := s.Get(f.id)
		if !ok {
			t.Fatalf("job %s missing from the reopened fixture", f.id)
		}
		if j.State != f.end || j.Kind != f.kind || j.Err != f.err {
			t.Fatalf("job %s = %s/%s err %q, want %s/%s err %q", f.id, j.Kind, j.State, j.Err, f.kind, f.end, f.err)
		}
		if !reflect.DeepEqual(j.Params, f.params) {
			t.Fatalf("job %s params = %+v, want %+v", f.id, j.Params, f.params)
		}
		if f.end == StateQueued {
			queued = f
		}
		if f.end != StateDone {
			continue
		}
		if j.Info == nil || !reflect.DeepEqual(*j.Info, f.result.ResultInfo) {
			t.Fatalf("job %s info = %+v, want %+v", f.id, j.Info, f.result.ResultInfo)
		}
		r, err := s.Result(f.id)
		if err != nil {
			t.Fatalf("Result(%s): %v", f.id, err)
		}
		if !reflect.DeepEqual(r, f.result) {
			t.Fatalf("Result(%s) = %+v, want %+v", f.id, r, f.result)
		}
	}

	inputs := map[string]string{}
	requeued, canceled := s.Recover(func(j Job, input []byte) error {
		inputs[j.ID] = string(input)
		return nil
	})
	if requeued != 1 || canceled != 0 || inputs[queued.id] != string(queued.input) {
		t.Fatalf("Recover = (%d, %d) with inputs %q, want the queued job's input %q", requeued, canceled, inputs, queued.input)
	}
}
