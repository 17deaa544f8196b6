package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/contour"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/stats"
)

// The response structs below are the JSON bodies as the service encoded
// them with encoding/json before writeResultJSON appended them. They are
// the reference the writer's bytes are compared against, and the tests
// decode responses into them.

// labelResponse is the JSON body of a labeling: /v1/label, and the result
// of a done labels, contours or gray job.
type labelResponse struct {
	Width         int             `json:"width"`
	Height        int             `json:"height"`
	NumComponents int             `json:"num_components"`
	Density       float64         `json:"density"`
	Phases        *phasesJSON     `json:"phases,omitempty"`
	Components    []componentJSON `json:"components,omitempty"`
	Contours      []contourJSON   `json:"contours,omitempty"`
}

// componentJSON is one component's statistics. Only /v1/stats and stats
// jobs report runs; a labeling's components leave it out.
type componentJSON struct {
	Label    int32      `json:"label"`
	Area     int64      `json:"area"`
	BBox     [4]int     `json:"bbox"` // min_x, min_y, max_x, max_y (inclusive)
	Centroid [2]float64 `json:"centroid"`
	Runs     int64      `json:"runs,omitempty"`
}

// componentsJSON renders a component list, with each component's run count
// when runs is set. The list is never nil, so an empty one encodes as [].
func componentsJSON(comps []paremsp.Component, runs bool) []componentJSON {
	out := make([]componentJSON, len(comps))
	for i, c := range comps {
		out[i] = componentJSON{Label: c.Label, Area: c.Area,
			BBox: [4]int{c.MinX, c.MinY, c.MaxX, c.MaxY}, Centroid: [2]float64{c.CentroidX, c.CentroidY}}
		if runs {
			out[i].Runs = c.Runs
		}
	}
	return out
}

// contourJSON is one component's outer boundary polyline: clockwise
// boundary pixels as [x, y] pairs (Moore tracing, 8-connectivity).
type contourJSON struct {
	Label  int32    `json:"label"`
	Points [][2]int `json:"points"`
}

// statsResponse is the JSON body of /v1/stats and of a done stats job.
// Components is nil (and left out) under ?components=false; a requested
// list is present even when empty.
type statsResponse struct {
	Width         int              `json:"width"`
	Height        int              `json:"height"`
	NumComponents int              `json:"num_components"`
	Density       float64          `json:"density"`
	BandRows      int              `json:"band_rows"`
	Components    *[]componentJSON `json:"components,omitempty"`
}

// volumeResponse is the JSON body of a successful /v1/volume request (and
// of a done volume job's result): the component summary, without the
// labeled voxel grid.
type volumeResponse struct {
	Width          int   `json:"width"`
	Height         int   `json:"height"`
	Depth          int   `json:"depth"`
	NumComponents  int   `json:"num_components"`
	ComponentSizes []int `json:"component_sizes,omitempty"`
}

// referenceBody is the response struct of a result's JSON body, built as
// the service built it before writeResultJSON.
func referenceBody(kind jobs.Kind, res *jobs.Result, comps bool) any {
	switch {
	case res.Stats != nil:
		s := res.Stats
		resp := statsResponse{
			Width: s.Width, Height: s.Height, NumComponents: s.NumComponents,
			BandRows: cmp.Or(res.BandRows, band.DefaultBandRows),
		}
		if px := int64(s.Width) * int64(s.Height); px > 0 {
			resp.Density = float64(s.ForegroundPixels) / float64(px)
		}
		if comps {
			list := componentsJSON(s.Components, true)
			resp.Components = &list
		}
		return resp
	case kind == jobs.KindVolume:
		resp := volumeResponse{
			Width: res.Width, Height: res.Height, Depth: res.Depth,
			NumComponents: res.NumComponents,
		}
		if comps {
			resp.ComponentSizes = res.VolumeSizes
		}
		return resp
	}
	resp := labelResponse{
		Width: res.Width, Height: res.Height, NumComponents: res.NumComponents,
		Density: res.Density, Phases: phasesJSONFrom(res.Phases),
	}
	if comps {
		resp.Components = componentsJSON(res.Components, false)
	}
	if res.Contours != nil {
		resp.Contours = make([]contourJSON, len(res.Contours))
		for i, c := range res.Contours {
			pts := make([][2]int, len(c.Points))
			for j, p := range c.Points {
				pts[j] = [2]int{p.X, p.Y}
			}
			resp.Contours[i] = contourJSON{Label: int32(c.Label), Points: pts}
		}
	}
	return resp
}

// writeRecorder keeps every Write's bytes.
type writeRecorder struct {
	body   bytes.Buffer
	writes []int
}

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, len(p))
	return r.body.Write(p)
}

// checkResultJSON compares writeResultJSON's bytes with encoding/json's
// for the reference body, and checks that no write held much more than
// flushBytes.
func checkResultJSON(t *testing.T, kind jobs.Kind, res *jobs.Result, comps bool) *writeRecorder {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(referenceBody(kind, res, comps)); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	var got writeRecorder
	if err := writeResultJSON(&got, kind, res, comps); err != nil {
		t.Fatalf("writeResultJSON: %v", err)
	}
	if !bytes.Equal(got.body.Bytes(), want.Bytes()) {
		t.Fatalf("body differs from encoding/json's\n got: %.600s\nwant: %.600s", got.body.Bytes(), want.Bytes())
	}
	for _, n := range got.writes {
		if n >= flushBytes+256 {
			t.Fatalf("one write of %d bytes; the writer should flush at %d", n, flushBytes)
		}
	}
	return &got
}

// points returns n boundary points.
func points(n int) []contour.Point {
	pts := make([]contour.Point, n)
	for i := range pts {
		pts[i] = contour.Point{X: i * 7 % 1031, Y: i / 3}
	}
	return pts
}

// manyComponents returns n components with fractional and whole centroids.
func manyComponents(n int) []stats.Component {
	out := make([]stats.Component, n)
	for i := range out {
		area := int64(i%97 + 1)
		out[i] = stats.Component{Label: stats.Label(i + 1), Area: area, MinX: i % 1024, MinY: i / 1024,
			MaxX: i%1024 + 3, MaxY: i/1024 + 2, CentroidX: float64(3*i+1) / float64(area),
			CentroidY: float64(i) / float64(area), Runs: int64(i % 5)}
	}
	return out
}

// TestResultJSONMatchesEncodingJSON renders each body shape through the
// writer and through encoding/json's encoding of the reference structs,
// and wants the same bytes.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	comps := []stats.Component{
		{Label: 1, Area: 3, MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, CentroidX: 2.0 / 3, CentroidY: 1.0 / 3, Runs: 2},
		{Label: 2, Area: 2, MinX: 3, MaxX: 3, MaxY: 1, CentroidX: 3, CentroidY: 0.5},
	}
	phases := core.PhaseTimes{Scan: 10, Merge: 20, Flatten: 30, Relabel: 40}
	labels := func(density float64) *jobs.Result {
		return &jobs.Result{ResultInfo: jobs.ResultInfo{Width: 4, Height: 2, NumComponents: 2, Density: density}, Components: comps}
	}
	contoursOf := func(n ...int) *jobs.Result {
		res := labels(0.5)
		for i, k := range n {
			res.Contours = append(res.Contours, contour.Contour{Label: stats.Label(i + 1), Points: points(k)})
		}
		return res
	}
	streamed := func(list []stats.Component) *jobs.Result {
		return &jobs.Result{ResultInfo: jobs.ResultInfo{BandRows: 16}, Stats: &band.Result{
			Width: 4, Height: 2, NumComponents: len(list), ForegroundPixels: 5, Components: list}}
	}
	volume := func(sizes []int) *jobs.Result {
		return &jobs.Result{ResultInfo: jobs.ResultInfo{Width: 4, Height: 2, Depth: 3, NumComponents: len(sizes)}, VolumeSizes: sizes}
	}
	withPhases := labels(0.625)
	withPhases.Phases = phases
	bigSizes := make([]int, 30000)
	for i := range bigSizes {
		bigSizes[i] = i * 31
	}

	for _, c := range []struct {
		name  string
		kind  jobs.Kind
		res   *jobs.Result
		comps bool
	}{
		{"density-0", jobs.KindLabels, labels(0), true},
		{"density-1", jobs.KindLabels, labels(1), true},
		{"density-1e-7", jobs.KindLabels, labels(1e-7), true},
		{"density-5e-324", jobs.KindLabels, labels(5e-324), true},
		{"density-0.123456789", jobs.KindLabels, labels(0.123456789), true},
		{"density-1e21", jobs.KindLabels, labels(1e21), true},
		{"density-negative-zero", jobs.KindLabels, labels(math.Copysign(0, -1)), true},
		{"components-false", jobs.KindLabels, labels(0.5), false},
		{"components-nil", jobs.KindLabels, &jobs.Result{ResultInfo: jobs.ResultInfo{Width: 4, Height: 2}}, true},
		{"components-empty", jobs.KindGray, &jobs.Result{ResultInfo: jobs.ResultInfo{Density: 1}, Components: []stats.Component{}}, true},
		{"phases-present", jobs.KindLabels, withPhases, true},
		{"contours-0-points", jobs.KindContours, contoursOf(0), true},
		{"contours-1-point", jobs.KindContours, contoursOf(1), true},
		{"contours-300-points", jobs.KindContours, contoursOf(300, 1, 0), true},
		{"contours-empty-list", jobs.KindContours, &jobs.Result{Contours: []contour.Contour{}}, true},
		{"stats", jobs.KindStats, streamed(comps), true},
		{"stats-components-false", jobs.KindStats, streamed(comps), false},
		{"stats-requested-empty", jobs.KindStats, streamed(nil), true},
		{"stats-no-pixels", jobs.KindStats, &jobs.Result{Stats: &band.Result{}}, true},
		{"volume", jobs.KindVolume, volume([]int{3, 2, 1}), true},
		{"volume-components-false", jobs.KindVolume, volume([]int{3, 2, 1}), false},
		{"volume-sizes-nil", jobs.KindVolume, volume(nil), true},
		{"volume-sizes-empty", jobs.KindVolume, volume([]int{}), true},
		{"over-64KiB-components", jobs.KindGray, &jobs.Result{ResultInfo: jobs.ResultInfo{Width: 1024, Height: 1024, NumComponents: 6000, Density: 1, Phases: phases},
			Components: manyComponents(6000)}, true},
		{"over-64KiB-stats", jobs.KindStats, streamed(manyComponents(6000)), true},
		{"over-64KiB-contour", jobs.KindContours, contoursOf(40000, 5, 20000), true},
		{"over-64KiB-volume", jobs.KindVolume, volume(bigSizes), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := checkResultJSON(t, c.kind, c.res, c.comps)
			if strings.HasPrefix(c.name, "over-64KiB") && len(got.writes) < 2 {
				t.Fatalf("a %d-byte body went out in %d write; want it flushed in chunks", got.body.Len(), len(got.writes))
			}
		})
	}
}

// failingWriter accepts ok writes, then fails every one, counting them.
type failingWriter struct{ ok, calls int }

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.ok {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestResultJSONStopsAfterFailedWrite checks that a body whose client has
// gone stops at the first failed write and reports it.
func TestResultJSONStopsAfterFailedWrite(t *testing.T) {
	res := &jobs.Result{Components: manyComponents(20000)}
	w := &failingWriter{ok: 1}
	if err := writeResultJSON(w, jobs.KindLabels, res, true); !errors.Is(err, errWriteFailed) {
		t.Fatalf("writeResultJSON = %v, want %v", err, errWriteFailed)
	}
	if w.calls != 2 {
		t.Fatalf("writeResultJSON wrote %d times; want it to stop at the failed second write", w.calls)
	}
}

// fuzzBytes hands out a fuzz input's bytes as numbers; past the end every
// number is zero.
type fuzzBytes []byte

func (b *fuzzBytes) u64(n int) uint64 {
	var v uint64
	for ; n > 0 && len(*b) > 0; n-- {
		v = v<<8 | uint64((*b)[0])
		*b = (*b)[1:]
	}
	return v
}

// signed returns a signed number of n bytes.
func (b *fuzzBytes) signed(n int) int { return int(int64(b.u64(n)<<(64-8*n)) >> (64 - 8*n)) }

// float returns a finite float: a quotient like a centroid, or any
// finite bit pattern.
func (b *fuzzBytes) float() float64 {
	if b.u64(1)%2 == 0 {
		return float64(b.signed(4)) / float64(b.u64(2)+1)
	}
	f := math.Float64frombits(b.u64(8))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// FuzzResultJSON renders arbitrary results of every body shape through the
// writer and through encoding/json, and wants the same bytes.
func FuzzResultJSON(f *testing.F) {
	f.Add(uint8(0), true, 4, 2, 2, 0.625, int64(100), []byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Add(uint8(1), true, 1024, 768, 5, 1e-7, int64(0), bytes.Repeat([]byte{0x80, 0x7f, 0x01}, 40))
	f.Add(uint8(2), false, 3, 3, 1, 1.0, int64(-5), []byte{1, 0xff, 0xfe, 3, 0, 9})
	f.Add(uint8(3), true, 128, 128, 9, 0.0, int64(7), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, kind uint8, comps bool, width, height, n int, density float64, phase int64, data []byte) {
		if math.IsNaN(density) || math.IsInf(density, 0) {
			t.Skip("encoding/json refuses non-finite numbers")
		}
		in := fuzzBytes(data)
		list := make([]stats.Component, in.u64(1)%16)
		for i := range list {
			list[i] = stats.Component{Label: stats.Label(in.signed(4)), Area: int64(in.signed(8)),
				MinX: in.signed(3), MinY: in.signed(3), MaxX: in.signed(3), MaxY: in.signed(3),
				CentroidX: in.float(), CentroidY: in.float(), Runs: int64(in.signed(2))}
		}
		res := &jobs.Result{ResultInfo: jobs.ResultInfo{Width: width, Height: height, NumComponents: n, Density: density,
			BandRows: in.signed(1), Phases: core.PhaseTimes{Scan: time.Duration(phase), Merge: time.Duration(phase / 3),
				Flatten: time.Duration(in.signed(2)), Relabel: time.Duration(in.signed(2))}}}
		if in.u64(1)%4 != 0 {
			res.Components = list
		}
		switch kind % 4 {
		case 0:
			checkResultJSON(t, jobs.KindLabels, res, comps)
		case 1:
			res.Stats = &band.Result{Width: width, Height: height, NumComponents: n, ForegroundPixels: int64(in.signed(8))}
			if in.u64(1)%4 != 0 {
				res.Stats.Components = list
			}
			checkResultJSON(t, jobs.KindStats, res, comps)
		case 2:
			for k := in.u64(1) % 5; k > 0; k-- {
				c := contour.Contour{Label: stats.Label(in.signed(4))}
				for p := in.u64(1) % 8; p > 0; p-- {
					c.Points = append(c.Points, contour.Point{X: in.signed(4), Y: in.signed(4)})
				}
				res.Contours = append(res.Contours, c)
			}
			checkResultJSON(t, jobs.KindContours, res, comps)
		case 3:
			res.Depth = in.signed(2)
			if k := in.u64(1); k%4 != 0 {
				res.VolumeSizes = make([]int, k%32)
				for i := range res.VolumeSizes {
					res.VolumeSizes[i] = in.signed(8)
				}
			}
			checkResultJSON(t, jobs.KindVolume, res, comps)
		}
	})
}
