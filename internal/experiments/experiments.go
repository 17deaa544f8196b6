// Package experiments defines the paper's evaluation workloads and the
// runners that regenerate every table and figure of the evaluation section
// (Tables II-IV, Figures 3-5). cmd/paperbench is a thin CLI over this
// package, and the repository-root benchmarks reuse the same image specs so
// `go test -bench` and the CLI measure identical workloads.
//
// Dataset substitution: the USC-SIPI classes and the NLCD rasters are
// regenerated synthetically at the same binarized-image regimes.
// Every spec is deterministic. The `scale` parameter shrinks pixel *counts*
// linearly (the paper's 465.2 MB image at scale 0.1 becomes 46.5 MB) so the
// full sweep stays runnable on small machines; the experiment *shape*
// (relative algorithm ranking, speedup-vs-size trends) is scale-stable.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	paremsp "repro"
	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/harness"
)

// ImageSpec lazily describes one benchmark image.
type ImageSpec struct {
	Name   string
	Class  string
	SizeMB float64 // nominal binary-raster size at scale 1
	Build  func() *binimg.Image
}

// dims returns width/height for a square image of the given raster size in
// MB scaled by scale (1 MB = 2^20 one-byte pixels).
func dims(sizeMB, scale float64) (int, int) {
	pixels := sizeMB * scale * (1 << 20)
	side := int(math.Round(math.Sqrt(pixels)))
	if side < 16 {
		side = 16
	}
	return side, side
}

// SmallClasses builds the three small-image classes (the paper's USC-SIPI
// surrogates, each image <= 1 MB at scale 1).
func SmallClasses(scale float64) map[string][]ImageSpec {
	classes := map[string][]ImageSpec{}
	add := func(class string, sizeMB float64, seed int64, build func(w, h int, seed int64) *binimg.Image) {
		w, h := dims(sizeMB, scale)
		classes[class] = append(classes[class], ImageSpec{
			Name:   fmt.Sprintf("%s_%02d", class, len(classes[class])+1),
			Class:  class,
			SizeMB: sizeMB,
			Build:  func() *binimg.Image { return build(w, h, seed) },
		})
	}
	for i, sizeMB := range []float64{0.25, 0.5, 0.75, 1.0} {
		add("Aerial", sizeMB, int64(100+i), dataset.Aerial)
		add("Texture", sizeMB, int64(200+i), dataset.Texture)
		add("Misc", sizeMB, int64(300+i), dataset.Misc)
	}
	return classes
}

// NLCDSizesMB are the six NLCD raster sizes of Table III.
var NLCDSizesMB = []float64{12, 33, 37.31, 116.30, 132.03, 465.20}

// NLCDImages builds the six land-cover surrogates of Table III at the given
// scale.
func NLCDImages(scale float64) []ImageSpec {
	specs := make([]ImageSpec, len(NLCDSizesMB))
	for i, sizeMB := range NLCDSizesMB {
		w, h := dims(sizeMB, scale)
		seed := int64(400 + i)
		specs[i] = ImageSpec{
			Name:   fmt.Sprintf("image_%d", i+1),
			Class:  "NLCD",
			SizeMB: sizeMB,
			Build: func() *binimg.Image {
				return dataset.LandCover(w, h, maxInt(32, w/64), 0.5, seed)
			},
		}
	}
	return specs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ClassOrder is the row order of Tables II and IV.
var ClassOrder = []string{"Aerial", "Texture", "Misc", "NLCD"}

// AllClasses merges the small classes and NLCD into the paper's four rows.
func AllClasses(scale float64) map[string][]ImageSpec {
	classes := SmallClasses(scale)
	classes["NLCD"] = NLCDImages(scale)
	return classes
}

// label adapts a library algorithm to the (image, threads) -> (labels, n)
// shape the runners time; the sequential algorithms ignore threads.
func label(alg paremsp.Algorithm) func(*binimg.Image, int) (*binimg.LabelMap, int) {
	return func(img *binimg.Image, threads int) (*binimg.LabelMap, int) {
		res, err := paremsp.Label(img, paremsp.Options{Algorithm: alg, Threads: threads})
		if err != nil {
			panic(err) // every algorithm labels every binary image at 8-connectivity
		}
		return res.Labels, res.NumComponents
	}
}

// sequential is label for the one-thread signature of Table II.
func sequential(alg paremsp.Algorithm) func(*binimg.Image) (*binimg.LabelMap, int) {
	run := label(alg)
	return func(img *binimg.Image) (*binimg.LabelMap, int) { return run(img, 1) }
}

var (
	runAREMSP   = sequential(paremsp.AlgAREMSP)
	runCCLREMSP = sequential(paremsp.AlgCCLREMSP)
	runPAREMSP  = label(paremsp.AlgPAREMSP)
)

// SequentialAlgs is the column order of Table II.
var SequentialAlgs = []struct {
	Name string
	Run  func(*binimg.Image) (*binimg.LabelMap, int)
}{
	{"CCLLRPC", baseline.CCLLRPC},
	{"CCLRemSP", runCCLREMSP},
	{"ARun", baseline.ARUN},
	{"ARemSP", runAREMSP},
}

// Config bundles the sweep parameters shared by the runners.
type Config struct {
	Scale   float64 // image-size scale factor (1.0 = the paper's sizes)
	Repeats int     // timed repetitions per image
	Warmup  int     // untimed warmup runs per image
}

// DefaultConfig is a laptop-friendly sweep (NLCD largest ≈ 9.3 MB).
var DefaultConfig = Config{Scale: 0.02, Repeats: 3, Warmup: 1}

// Table2 regenerates Table II: min/average/max execution time (ms) of the
// four sequential algorithms over each dataset class.
func Table2(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "Table II: sequential execution times [msec] (scale %.3g, %s)\n",
		cfg.Scale, harness.EnvBanner())
	tbl := harness.NewTable("Image type", "Stat", "CCLLRPC", "CCLRemSP", "ARun", "ARemSP")
	classes := AllClasses(cfg.Scale)
	for _, class := range ClassOrder {
		stats := make([]harness.MinAvgMax, len(SequentialAlgs))
		for a, alg := range SequentialAlgs {
			var samples []harness.Sample
			for _, spec := range classes[class] {
				img := spec.Build()
				samples = append(samples, harness.Measure(cfg.Repeats, cfg.Warmup, func() {
					alg.Run(img)
				}))
			}
			stats[a] = harness.Aggregate(samples)
		}
		rows := []struct {
			stat string
			get  func(harness.MinAvgMax) time.Duration
		}{
			{"Min", func(s harness.MinAvgMax) time.Duration { return s.Min }},
			{"Average", func(s harness.MinAvgMax) time.Duration { return s.Avg }},
			{"Max", func(s harness.MinAvgMax) time.Duration { return s.Max }},
		}
		for _, r := range rows {
			cells := []string{class, r.stat}
			for _, s := range stats {
				cells = append(cells, harness.Msec(r.get(s)))
			}
			tbl.AddRow(cells...)
		}
	}
	tbl.Render(w)
}

// Table3 regenerates Table III: the NLCD image inventory with nominal and
// scaled sizes.
func Table3(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "Table III: NLCD images and their sizes [MB] (scale %.3g)\n", cfg.Scale)
	tbl := harness.NewTable("Image name", "Paper size", "Scaled size", "Pixels")
	for _, spec := range NLCDImages(cfg.Scale) {
		img := spec.Build()
		tbl.AddRow(spec.Name,
			fmt.Sprintf("%.2f", spec.SizeMB),
			fmt.Sprintf("%.2f", float64(img.SizeBytes())/(1<<20)),
			fmt.Sprintf("%dx%d", img.Width, img.Height))
	}
	tbl.Render(w)
}

// Table4Threads is the thread-count column set of Table IV.
var Table4Threads = []int{2, 6, 16, 24}

// Table4 regenerates Table IV: min/average/max PAREMSP execution time (ms)
// per dataset class for each thread count.
func Table4(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "Table IV: PAREMSP execution times [msec] (scale %.3g, %s)\n",
		cfg.Scale, harness.EnvBanner())
	header := []string{"Image type", "Stat"}
	for _, th := range Table4Threads {
		header = append(header, fmt.Sprintf("%d", th))
	}
	tbl := harness.NewTable(header...)
	classes := AllClasses(cfg.Scale)
	for _, class := range ClassOrder {
		stats := make([]harness.MinAvgMax, len(Table4Threads))
		for ti, th := range Table4Threads {
			var samples []harness.Sample
			for _, spec := range classes[class] {
				img := spec.Build()
				samples = append(samples, harness.Measure(cfg.Repeats, cfg.Warmup, func() {
					runPAREMSP(img, th)
				}))
			}
			stats[ti] = harness.Aggregate(samples)
		}
		for _, r := range []struct {
			stat string
			get  func(harness.MinAvgMax) time.Duration
		}{
			{"Min", func(s harness.MinAvgMax) time.Duration { return s.Min }},
			{"Average", func(s harness.MinAvgMax) time.Duration { return s.Avg }},
			{"Max", func(s harness.MinAvgMax) time.Duration { return s.Max }},
		} {
			cells := []string{class, r.stat}
			for _, s := range stats {
				cells = append(cells, harness.Msec(r.get(s)))
			}
			tbl.AddRow(cells...)
		}
	}
	tbl.Render(w)
}

// Fig4Threads is the x-axis of Figure 4.
var Fig4Threads = []int{2, 6, 8, 16, 24}

// Fig4 regenerates Figure 4: PAREMSP speedup (vs sequential AREMSP) for the
// three small-image classes, averaged per class, at each thread count.
func Fig4(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "Figure 4: speedup vs threads, small classes (scale %.3g, %s)\n",
		cfg.Scale, harness.EnvBanner())
	header := []string{"Class"}
	for _, th := range Fig4Threads {
		header = append(header, fmt.Sprintf("T=%d", th))
	}
	tbl := harness.NewTable(header...)
	xt := make([]float64, len(Fig4Threads))
	for i, th := range Fig4Threads {
		xt[i] = float64(th)
	}
	chart := harness.NewChart("", "threads", "speedup vs sequential AREMSP", xt)
	for _, class := range []string{"Aerial", "Misc", "Texture"} {
		specs := SmallClasses(cfg.Scale)[class]
		cells := []string{class}
		var series []float64
		// Per-class mean sequential time.
		var seq []harness.Sample
		imgs := make([]*binimg.Image, len(specs))
		for i, spec := range specs {
			imgs[i] = spec.Build()
			seq = append(seq, harness.Measure(cfg.Repeats, cfg.Warmup, func() {
				runAREMSP(imgs[i])
			}))
		}
		seqAvg := harness.Aggregate(seq).Avg
		for _, th := range Fig4Threads {
			var par []harness.Sample
			for _, img := range imgs {
				img := img
				par = append(par, harness.Measure(cfg.Repeats, cfg.Warmup, func() {
					runPAREMSP(img, th)
				}))
			}
			parAvg := harness.Aggregate(par).Avg
			sp := harness.Speedup(seqAvg, parAvg)
			series = append(series, sp)
			cells = append(cells, fmt.Sprintf("%.2f", sp))
		}
		tbl.AddRow(cells...)
		chart.AddSeries(class, series)
	}
	tbl.Render(w)
	fmt.Fprintln(w)
	chart.Render(w)
}

// Fig5Threads is the x-axis of Figure 5.
var Fig5Threads = []int{1, 2, 4, 6, 8, 12, 16, 20, 24}

// Fig5 regenerates Figure 5: per NLCD image, the speedup of PAREMSP's local
// phase (5a) and local+merge (5b) relative to the one-thread run of the same
// phases, at each thread count.
func Fig5(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "Figure 5: NLCD speedup vs threads (scale %.3g, %s)\n",
		cfg.Scale, harness.EnvBanner())
	header := []string{"Image", "Size MB", "Phase"}
	for _, th := range Fig5Threads {
		header = append(header, fmt.Sprintf("T=%d", th))
	}
	tbl := harness.NewTable(header...)
	xt := make([]float64, len(Fig5Threads))
	for i, th := range Fig5Threads {
		xt[i] = float64(th)
	}
	chartLocal := harness.NewChart("(a) local", "threads", "speedup", xt)
	chartLM := harness.NewChart("(b) local + merge", "threads", "speedup", xt)
	for _, spec := range NLCDImages(cfg.Scale) {
		img := spec.Build()
		local := make([]time.Duration, len(Fig5Threads))
		localMerge := make([]time.Duration, len(Fig5Threads))
		for ti, th := range Fig5Threads {
			var bestLocal, bestLM time.Duration
			for r := 0; r < cfg.Repeats; r++ {
				_, times, _ := core.PAREMSP(context.Background(), img, &binimg.LabelMap{}, nil, core.Options{Threads: th})
				if r == 0 || times.Local() < bestLocal {
					bestLocal = times.Local()
				}
				if r == 0 || times.LocalMerge() < bestLM {
					bestLM = times.LocalMerge()
				}
			}
			local[ti] = bestLocal
			localMerge[ti] = bestLM
		}
		rowLocal := []string{spec.Name, fmt.Sprintf("%.2f", spec.SizeMB), "local"}
		rowLM := []string{spec.Name, fmt.Sprintf("%.2f", spec.SizeMB), "local+merge"}
		var serLocal, serLM []float64
		for ti := range Fig5Threads {
			spLocal := harness.Speedup(local[0], local[ti])
			spLM := harness.Speedup(localMerge[0], localMerge[ti])
			serLocal = append(serLocal, spLocal)
			serLM = append(serLM, spLM)
			rowLocal = append(rowLocal, fmt.Sprintf("%.2f", spLocal))
			rowLM = append(rowLM, fmt.Sprintf("%.2f", spLM))
		}
		tbl.AddRow(rowLocal...)
		tbl.AddRow(rowLM...)
		chartLocal.AddSeries(spec.Name, serLocal)
		chartLM.AddSeries(spec.Name, serLM)
	}
	tbl.Render(w)
	fmt.Fprintln(w)
	chartLocal.Render(w)
	fmt.Fprintln(w)
	chartLM.Render(w)
}

// Fig3 demonstrates the grayscale-to-binary conversion of Figure 3: it
// synthesizes a grayscale raster, binarizes it at level 0.5 with the im2bw
// rule, and reports the before/after statistics.
func Fig3(w io.Writer, cfg Config) {
	width, height := dims(0.25, cfg.Scale)
	gray := make([]uint8, width*height)
	// A radial gradient with texture: mimics a natural photograph's
	// luminance distribution well enough to show the threshold in action.
	cx, cy := float64(width)/2, float64(height)/2
	maxD := math.Hypot(cx, cy)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy) / maxD
			tex := 0.15 * math.Sin(float64(x)/3.0) * math.Cos(float64(y)/5.0)
			v := (1 - d) + tex
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			gray[y*width+x] = uint8(v * 255)
		}
	}
	img, err := binimg.FromGray(width, height, gray, 0.5)
	if err != nil {
		fmt.Fprintf(w, "fig3: %v\n", err)
		return
	}
	_, n := runAREMSP(img)
	fmt.Fprintf(w, "Figure 3: im2bw(0.5) conversion demo\n")
	tbl := harness.NewTable("Stage", "Pixels", "Foreground", "Density", "Components")
	tbl.AddRow("grayscale", fmt.Sprintf("%dx%d", width, height), "-", "-", "-")
	tbl.AddRow("binary", fmt.Sprintf("%dx%d", width, height),
		fmt.Sprintf("%d", img.ForegroundCount()),
		fmt.Sprintf("%.3f", img.Density()),
		fmt.Sprintf("%d", n))
	tbl.Render(w)
}
