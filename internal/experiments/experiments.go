// Package experiments defines the paper's evaluation workloads and
// regenerates every table and figure of the evaluation section (Tables
// II-IV, Figures 3-5). cmd/paperbench is a thin CLI over this package.
// RunGrid is the one timing loop: each timed table or figure is a
// GridConfig it measures plus a renderer that prints the resulting
// BenchReport, so every number printed is backed by a report row.
//
// Dataset substitution: the USC-SIPI classes and the NLCD rasters are
// regenerated synthetically at the same binarized-image regimes.
// Every spec is deterministic. The `scale` parameter shrinks pixel *counts*
// linearly (the paper's 465.2 MB image at scale 0.1 becomes 46.5 MB) so the
// full sweep stays runnable on small machines; the experiment *shape*
// (relative algorithm ranking, speedup-vs-size trends) is scale-stable.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	paremsp "repro"
	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/harness"
)

// ImageSpec lazily describes one benchmark image.
type ImageSpec struct {
	Name   string
	Class  string
	SizeMB float64 // nominal binary-raster size at scale 1
	W, H   int     // the scaled image's dimensions
	Build  func() *binimg.Image
}

// ImageCache holds the images built so far, by name and dimensions, so
// every grid run with one labels the same rasters: paperbench -exp all
// builds each class once, not once per experiment. The labelers only read
// the images. A nil cache builds afresh on every use; a cache is not safe
// for concurrent grids.
type ImageCache struct {
	images map[imageKey]*binimg.Image
}

type imageKey struct {
	name string
	w, h int
}

// build returns spec's image, building it on first use.
func (c *ImageCache) build(spec ImageSpec) *binimg.Image {
	if c == nil {
		return spec.Build()
	}
	k := imageKey{spec.Name, spec.W, spec.H}
	img, ok := c.images[k]
	if !ok {
		img = spec.Build()
		if c.images == nil {
			c.images = map[imageKey]*binimg.Image{}
		}
		c.images[k] = img
	}
	return img
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
			W:      w,
			H:      h,
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
			W:      w,
			H:      h,
			Build: func() *binimg.Image {
				return dataset.LandCover(w, h, max(32, w/64), 0.5, seed)
			},
		}
	}
	return specs
}

// ClassOrder is the row order of Tables II and IV.
var ClassOrder = []string{"Aerial", "Texture", "Misc", "NLCD"}

// AllClasses merges the small classes and NLCD into the paper's four rows.
func AllClasses(scale float64) map[string][]ImageSpec {
	classes := SmallClasses(scale)
	classes["NLCD"] = NLCDImages(scale)
	return classes
}

// DefaultConfig is a laptop-friendly sweep (NLCD largest ≈ 9.3 MB): the
// scale, repeats and warmup paperbench runs the experiments at unless
// flags say otherwise.
var DefaultConfig = GridConfig{Scale: 0.02, Repeats: 3, Warmup: 1}

// Experiment is one table or figure of the paper's evaluation section. A
// timed one declares the grid that measures it, and Render prints it from
// that grid's report; Table III and Figure 3 time nothing (Grid is nil) and
// render from the report's scale alone.
type Experiment struct {
	Name   string
	Grid   *GridConfig // the axes; Measure supplies scale, repeats and warmup
	Render func(w io.Writer, rep *BenchReport)
}

// Experiments lists the paper's experiments in the order paperbench
// -exp all prints them.
var Experiments = []Experiment{
	{"fig3", nil, func(w io.Writer, rep *BenchReport) { Fig3(w, rep.Scale) }},
	{"table2", &GridConfig{Algorithms: Table2Algs}, Table2},
	{"table3", nil, func(w io.Writer, rep *BenchReport) { Table3(w, rep.Scale) }},
	{"table4", &GridConfig{Algorithms: []string{"PAREMSP"}, GOMAXPROCS: Table4Threads}, Table4},
	{"fig4", &GridConfig{Algorithms: []string{"ARemSP", "PAREMSP"}, Classes: Fig4Classes, GOMAXPROCS: Fig4Threads}, Fig4},
	{"fig5", &GridConfig{Algorithms: []string{"PAREMSP"}, Classes: []string{"NLCD"}, GOMAXPROCS: Fig5Threads}, Fig5},
}

// Measure runs the experiment's grid at base's scale, repeats and warmup,
// on images drawn from images (nil builds them afresh).
func (e Experiment) Measure(base GridConfig, images *ImageCache) *BenchReport {
	if e.Grid == nil {
		return &BenchReport{Scale: base.Scale}
	}
	cfg := *e.Grid
	cfg.Scale, cfg.Repeats, cfg.Warmup = base.Scale, base.Repeats, base.Warmup
	return RunGrid(&cfg, GridMeta{Images: images})
}

// Table2Algs is the column order of Table II.
var Table2Algs = []string{"CCLLRPC", "CCLRemSP", "ARun", "ARemSP"}

// Table2 renders Table II from its grid's report: per dataset class, the
// min/average/max over the class's images of each image's median
// execution time (ms) under the four sequential algorithms.
func Table2(w io.Writer, rep *BenchReport) {
	timesTable(w, rep, "Table II: sequential execution times", Table2Algs,
		func(class string, col int) ConfigKey { return ConfigKey{Table2Algs[col], class, 0} })
}

// timesTable renders a table of Table II's shape. Each class in ClassOrder
// gets Min, Average and Max rows: in each column, the minimum, mean and
// maximum of the per-image median times (ms) of the report row that key
// names for the class and column.
func timesTable(w io.Writer, rep *BenchReport, title string, cols []string, key func(class string, col int) ConfigKey) {
	fmt.Fprintf(w, "%s [msec] (scale %.3g, %s)\n", title, rep.Scale, harness.EnvBanner())
	tbl := harness.NewTable(append([]string{"Image type", "Stat"}, cols...)...)
	for _, class := range ClassOrder {
		rows := [3][]string{{class, "Min"}, {class, "Average"}, {class, "Max"}}
		for col := range cols {
			images := rep.row(key(class, col)).Images
			lo, sum, hi := images[0].NsPerOp, int64(0), images[0].NsPerOp
			for _, im := range images {
				lo, sum, hi = min(lo, im.NsPerOp), sum+im.NsPerOp, max(hi, im.NsPerOp)
			}
			for s, ns := range []int64{lo, sum / int64(len(images)), hi} {
				rows[s] = append(rows[s], harness.Msec(time.Duration(ns)))
			}
		}
		for _, cells := range rows {
			tbl.AddRow(cells...)
		}
	}
	tbl.Render(w)
}

// Table3 regenerates Table III: the NLCD image inventory with nominal and
// scaled sizes. The scaled size is the byte raster's, one byte per pixel,
// so no image is built.
func Table3(w io.Writer, scale float64) {
	fmt.Fprintf(w, "Table III: NLCD images and their sizes [MB] (scale %.3g)\n", scale)
	tbl := harness.NewTable("Image name", "Paper size", "Scaled size", "Pixels")
	for _, spec := range NLCDImages(scale) {
		tbl.AddRow(spec.Name,
			fmt.Sprintf("%.2f", spec.SizeMB),
			fmt.Sprintf("%.2f", float64(spec.W*spec.H)/(1<<20)),
			fmt.Sprintf("%dx%d", spec.W, spec.H))
	}
	tbl.Render(w)
}

// Table4Threads is the thread-count column set of Table IV.
var Table4Threads = []int{2, 6, 16, 24}

// Table4 renders Table IV from its grid's report: per dataset class, the
// min/average/max over the class's images of each image's median PAREMSP
// execution time (ms) at each thread count.
func Table4(w io.Writer, rep *BenchReport) {
	cols := make([]string, len(Table4Threads))
	for i, th := range Table4Threads {
		cols[i] = fmt.Sprintf("%d", th)
	}
	timesTable(w, rep, "Table IV: PAREMSP execution times", cols,
		func(class string, col int) ConfigKey { return ConfigKey{"PAREMSP", class, Table4Threads[col]} })
}

// Fig4Threads is the x-axis of Figure 4.
var Fig4Threads = []int{2, 6, 8, 16, 24}

// Fig4Classes is the series order of Figure 4: the three small classes.
var Fig4Classes = []string{"Aerial", "Misc", "Texture"}

// Fig4 renders Figure 4 from its grid's report: per small class, PAREMSP's
// speedup over sequential AREMSP at each thread count, the ratio of the
// two rows' median repeats (Analysis.ScalingCurves).
func Fig4(w io.Writer, rep *BenchReport) {
	fmt.Fprintf(w, "Figure 4: speedup vs threads, small classes (scale %.3g, %s)\n",
		rep.Scale, harness.EnvBanner())
	header := []string{"Class"}
	for _, th := range Fig4Threads {
		header = append(header, fmt.Sprintf("T=%d", th))
	}
	tbl := harness.NewTable(header...)
	chart := harness.NewChart("", "threads", "speedup vs sequential AREMSP", ticks(Fig4Threads))
	curves := map[string]ScalingCurve{}
	for _, c := range Analyze(rep).ScalingCurves() {
		if c.Algorithm == "PAREMSP" {
			curves[c.Class] = c
		}
	}
	for _, class := range Fig4Classes {
		cells := []string{class}
		var series []float64
		for _, p := range curves[class].Points {
			series = append(series, p.SpeedupVsSeq)
			cells = append(cells, fmt.Sprintf("%.2f", p.SpeedupVsSeq))
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

// Fig5 renders Figure 5 from its grid's report: per NLCD image, the
// speedup of PAREMSP's local phase (5a, the median scan time) and of
// local+merge (5b, the median scan plus the median merge time) at each
// thread count, relative to the same quantity at one thread.
func Fig5(w io.Writer, rep *BenchReport) {
	fmt.Fprintf(w, "Figure 5: NLCD speedup vs threads (scale %.3g, %s)\n",
		rep.Scale, harness.EnvBanner())
	header := []string{"Image", "Size MB", "Phase"}
	for _, th := range Fig5Threads {
		header = append(header, fmt.Sprintf("T=%d", th))
	}
	tbl := harness.NewTable(header...)
	xt := ticks(Fig5Threads)
	phases := []struct {
		name  string
		ns    func(ImageResult) int64
		chart *harness.Chart
	}{
		{"local", func(im ImageResult) int64 { return im.ScanNs },
			harness.NewChart("(a) local", "threads", "speedup", xt)},
		{"local+merge", func(im ImageResult) int64 { return im.ScanNs + im.MergeNs },
			harness.NewChart("(b) local + merge", "threads", "speedup", xt)},
	}
	rows := make([]*BenchResult, len(Fig5Threads))
	for t, th := range Fig5Threads {
		rows[t] = rep.row(ConfigKey{"PAREMSP", "NLCD", th})
	}
	for i, im := range rows[0].Images {
		for _, phase := range phases {
			cells := []string{im.Name, fmt.Sprintf("%.2f", NLCDSizesMB[i]), phase.name}
			var series []float64
			for _, row := range rows {
				sp := 0.0
				if ns := phase.ns(row.Images[i]); ns > 0 {
					sp = float64(phase.ns(im)) / float64(ns)
				}
				series = append(series, sp)
				cells = append(cells, fmt.Sprintf("%.2f", sp))
			}
			tbl.AddRow(cells...)
			phase.chart.AddSeries(im.Name, series)
		}
	}
	tbl.Render(w)
	for _, phase := range phases {
		fmt.Fprintln(w)
		phase.chart.Render(w)
	}
}

// ticks converts a thread axis to chart x positions.
func ticks(threads []int) []float64 {
	xt := make([]float64, len(threads))
	for i, th := range threads {
		xt[i] = float64(th)
	}
	return xt
}

// Fig3 demonstrates the grayscale-to-binary conversion of Figure 3: it
// synthesizes a grayscale raster, binarizes it at level 0.5 with the im2bw
// rule, and reports the before/after statistics.
func Fig3(w io.Writer, scale float64) {
	width, height := dims(0.25, scale)
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
	n := paremsp.CountComponents(img)
	fmt.Fprintf(w, "Figure 3: im2bw(0.5) conversion demo\n")
	tbl := harness.NewTable("Stage", "Pixels", "Foreground", "Density", "Components")
	tbl.AddRow("grayscale", fmt.Sprintf("%dx%d", width, height), "-", "-", "-")
	tbl.AddRow("binary", fmt.Sprintf("%dx%d", width, height),
		fmt.Sprintf("%d", img.ForegroundCount()),
		fmt.Sprintf("%.3f", img.Density()),
		fmt.Sprintf("%d", n))
	tbl.Render(w)
}
