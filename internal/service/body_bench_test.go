package service

import (
	"math/rand"
	"net/http"
	"testing"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/dataset"
	"repro/internal/jobs"
)

// discardResponse is a ResponseWriter that drops the body, so a benchmark
// times the renderer and not a growing buffer.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkWriteResult times writeResult, the renderer behind the
// synchronous endpoints and GET /v1/jobs/{id}/result, on every body the
// service sends for a 1 MB surrogate: a 1024x1024 Aerial raster labeled
// as binary (JSON, contours, stats, PGM, CCL1), a four-level gray raster
// built from it and its mirror image, as the benchmark's label-small-mix
// workload builds one (JSON), and a 128x128x64 volume of random voxels.
func BenchmarkWriteResult(b *testing.B) {
	const side = 1024
	img := dataset.Aerial(side, side, 1)
	bin, err := paremsp.Label(img, paremsp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fg := 0
	for _, v := range img.Pix {
		fg += int(v)
	}
	labels := &jobs.Result{
		ResultInfo: jobs.ResultInfo{Width: side, Height: side, NumComponents: bin.NumComponents,
			Density: float64(fg) / (side * side), Phases: bin.Phases},
		Labels: bin.Labels, Components: paremsp.ComponentsOf(bin.Labels),
	}
	contours := *labels
	contours.Contours = paremsp.TraceContours(bin.Labels, bin.NumComponents)
	streamed := &jobs.Result{Stats: &band.Result{Width: side, Height: side, NumComponents: bin.NumComponents,
		Components: labels.Components, ForegroundPixels: int64(fg)}}

	g := paremsp.NewGrayImage(side, side)
	for y := 0; y < side; y++ {
		row := img.Pix[y*side : (y+1)*side]
		for x, v := range row {
			g.Pix[y*side+x] = 85*v + 170*row[side-1-x]
		}
	}
	gray, err := paremsp.LabelGrayInto(g, nil, nil, paremsp.Options{Mode: paremsp.ModeGray})
	if err != nil {
		b.Fatal(err)
	}
	grays := &jobs.Result{
		ResultInfo: jobs.ResultInfo{Width: side, Height: side, NumComponents: gray.NumComponents, Density: 1, Phases: gray.Phases},
		Labels:     gray.Labels, Components: paremsp.ComponentsOf(gray.Labels),
	}

	rng := rand.New(rand.NewSource(1))
	vol := paremsp.NewVolume(128, 128, 64)
	for i := range vol.Vox {
		if rng.Intn(5) == 0 {
			vol.Vox[i] = 1
		}
	}
	lv, nv := paremsp.LabelVolume(vol)
	volume := &jobs.Result{ResultInfo: jobs.ResultInfo{Width: 128, Height: 128, Depth: 64, NumComponents: nv},
		VolumeSizes: paremsp.VolumeComponentSizes(lv, nv)}

	for _, c := range []struct {
		name   string
		kind   jobs.Kind
		accept string
		res    *jobs.Result
	}{
		{"binary-json", jobs.KindLabels, ctJSON, labels},
		{"gray-json", jobs.KindGray, ctJSON, grays},
		{"contours", jobs.KindContours, ctJSON, &contours},
		{"stats", jobs.KindStats, ctJSON, streamed},
		{"volume", jobs.KindVolume, ctJSON, volume},
		{"pgm", jobs.KindLabels, ctPGM, labels},
		{"ccl1", jobs.KindLabels, ctCCL, labels},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeResult(w, c.kind, c.accept, c.res, true)
			}
		})
	}
}
