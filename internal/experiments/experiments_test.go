package experiments_test

import (
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tinyConfig keeps the runner tests fast: the smallest images the spec
// machinery allows, one repetition.
var tinyConfig = experiments.GridConfig{Scale: 0.001, Repeats: 1, Warmup: 0}

// measure runs the named experiment's grid at tinyConfig.
func measure(t *testing.T, name string) *experiments.BenchReport {
	t.Helper()
	for _, e := range experiments.Experiments {
		if e.Name == name {
			return e.Measure(tinyConfig, nil)
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

func TestSmallClassesSpecs(t *testing.T) {
	classes := experiments.SmallClasses(0.01)
	for _, class := range []string{"Aerial", "Texture", "Misc"} {
		specs := classes[class]
		if len(specs) != 4 {
			t.Fatalf("%s has %d specs, want 4", class, len(specs))
		}
		for _, spec := range specs {
			img := spec.Build()
			if img.Width < 16 || img.Height < 16 {
				t.Fatalf("%s built degenerate image %dx%d", spec.Name, img.Width, img.Height)
			}
			if err := img.Validate(); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			// Determinism: rebuilding gives the identical image.
			if !img.Equal(spec.Build()) {
				t.Fatalf("%s not deterministic", spec.Name)
			}
		}
	}
}

func TestNLCDImagesMatchTable3(t *testing.T) {
	specs := experiments.NLCDImages(0.005)
	if len(specs) != 6 {
		t.Fatalf("NLCD has %d specs, want 6", len(specs))
	}
	for i, spec := range specs {
		if spec.SizeMB != experiments.NLCDSizesMB[i] {
			t.Fatalf("spec %d nominal size %v, want %v", i, spec.SizeMB, experiments.NLCDSizesMB[i])
		}
	}
	// Sizes must be strictly increasing like the paper's Table III.
	for i := 1; i < len(specs); i++ {
		a, b := specs[i-1].Build(), specs[i].Build()
		if a.SizeBytes() >= b.SizeBytes() {
			t.Fatalf("scaled sizes not increasing: %d then %d", a.SizeBytes(), b.SizeBytes())
		}
	}
}

func TestAllClassesCoversClassOrder(t *testing.T) {
	classes := experiments.AllClasses(0.001)
	for _, class := range experiments.ClassOrder {
		if len(classes[class]) == 0 {
			t.Fatalf("class %s empty", class)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Table2(&sb, measure(t, "table2"))
	out := sb.String()
	for _, want := range []string{"Table II", "CCLLRPC", "ARemSP", "NLCD", "Average"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II output missing %q:\n%s", want, out)
		}
	}
	// 4 classes x 3 stat rows + header + separator.
	if lines := strings.Count(out, "\n"); lines < 14 {
		t.Fatalf("Table II too short (%d lines):\n%s", lines, out)
	}
}

func TestTable3Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Table3(&sb, tinyConfig.Scale)
	out := sb.String()
	for _, want := range []string{"Table III", "image_1", "image_6", "465.20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III output missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Table4(&sb, measure(t, "table4"))
	out := sb.String()
	for _, want := range []string{"Table IV", "NLCD", "Min", "Max"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table IV output missing %q:\n%s", want, out)
		}
	}
	for _, th := range experiments.Table4Threads {
		if !strings.Contains(out, string(rune('0'+th/10))+string(rune('0'+th%10))) &&
			!strings.Contains(out, string(rune('0'+th))) {
			t.Fatalf("Table IV missing thread column %d:\n%s", th, out)
		}
	}
}

func TestFig4Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Fig4(&sb, measure(t, "fig4"))
	out := sb.String()
	for _, want := range []string{"Figure 4", "Aerial", "Misc", "Texture", "T=24"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Fig5(&sb, measure(t, "fig5"))
	out := sb.String()
	for _, want := range []string{"Figure 5", "image_6", "local", "local+merge", "T=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 5 output missing %q:\n%s", want, out)
		}
	}
	// T=1 speedups are 1.00 by construction.
	if !strings.Contains(out, "1.00") {
		t.Fatalf("Figure 5 missing unit baseline:\n%s", out)
	}
}

func TestFig3Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Fig3(&sb, tinyConfig.Scale)
	out := sb.String()
	for _, want := range []string{"Figure 3", "grayscale", "binary", "Components"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 3 output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderersPrintExactCells feeds the renderers a hand-built report
// whose per-image and phase medians make every cell known in advance.
func TestRenderersPrintExactCells(t *testing.T) {
	const ms = int64(1_000_000)
	// Three images in no particular order with medians a+1.5, a+5 and a ms:
	// Min a, Average a+6.5/3 (2.1666 truncated to whole ns), Max a+5.
	images := func(a int64) []experiments.ImageResult {
		return []experiments.ImageResult{
			{Name: "i1", NsPerOp: a*ms + 3*ms/2}, {Name: "i2", NsPerOp: (a + 5) * ms}, {Name: "i3", NsPerOp: a * ms},
		}
	}
	// Each renderer reads its own experiment's report, as paperbench runs
	// them.
	reports := map[string]*experiments.BenchReport{}
	add := func(exp, alg, class string, threads int, ns int64, ims []experiments.ImageResult) {
		if reports[exp] == nil {
			reports[exp] = &experiments.BenchReport{Scale: 0.5}
		}
		reports[exp].Results = append(reports[exp].Results, experiments.BenchResult{
			Algorithm: alg, Class: class, Threads: threads, NsPerOp: ns, Images: ims})
	}
	for ci, class := range experiments.ClassOrder {
		for ai, alg := range experiments.Table2Algs {
			add("table2", alg, class, 0, 1, images(int64(10*ci+ai+1)))
		}
		for ti, th := range experiments.Table4Threads {
			add("table4", "PAREMSP", class, th, 1, images(int64(100+10*ci+ti)))
		}
	}
	// Figure 4: ARemSP takes 12 ms on Aerial and twice that on Misc and
	// Texture, so the same PAREMSP times give doubled speedups there.
	fig4ns := []int64{8 * ms, 6 * ms, 24 * ms / 5, 4 * ms, 16 * ms}
	for _, class := range experiments.Fig4Classes {
		seq := 12 * ms
		if class != "Aerial" {
			seq *= 2
		}
		add("fig4", "ARemSP", class, 0, seq, nil)
		for ti, th := range experiments.Fig4Threads {
			add("fig4", "PAREMSP", class, th, fig4ns[ti], nil)
		}
	}
	// Figure 5: image_1 speeds up; image_2's phases take the same time at
	// every thread count but T=24, where its scan reads 0 ns: that speedup
	// prints as 0.00, not as a division by zero.
	scan := []int64{48, 24, 16, 12, 8, 6, 4, 3, 2}
	scanMerge := []int64{96, 64, 48, 48, 32, 24, 24, 16, 12}
	for ti, th := range experiments.Fig5Threads {
		scan2 := 5 * ms
		if th == 24 {
			scan2 = 0
		}
		add("fig5", "PAREMSP", "NLCD", th, 1, []experiments.ImageResult{
			{Name: "image_1", ScanNs: scan[ti] * ms, MergeNs: (scanMerge[ti] - scan[ti]) * ms},
			{Name: "image_2", ScanNs: scan2, MergeNs: 7 * ms},
		})
	}

	cases := []struct {
		exp    string
		render func(io.Writer, *experiments.BenchReport)
		rows   [][]string
	}{
		{"table2", experiments.Table2, [][]string{
			{"Aerial", "Min", "1.00", "2.00", "3.00", "4.00"},
			{"Aerial", "Average", "3.17", "4.17", "5.17", "6.17"},
			{"Aerial", "Max", "6.00", "7.00", "8.00", "9.00"},
			{"NLCD", "Min", "31.00", "32.00", "33.00", "34.00"},
			{"NLCD", "Average", "33.17", "34.17", "35.17", "36.17"},
			{"NLCD", "Max", "36.00", "37.00", "38.00", "39.00"},
		}},
		{"table4", experiments.Table4, [][]string{
			{"Texture", "Min", "110.00", "111.00", "112.00", "113.00"},
			{"Texture", "Average", "112.17", "113.17", "114.17", "115.17"},
			{"Texture", "Max", "115.00", "116.00", "117.00", "118.00"},
			{"NLCD", "Average", "132.17", "133.17", "134.17", "135.17"},
		}},
		{"fig4", experiments.Fig4, [][]string{
			{"Aerial", "1.50", "2.00", "2.50", "3.00", "0.75"},
			{"Misc", "3.00", "4.00", "5.00", "6.00", "1.50"},
			{"Texture", "3.00", "4.00", "5.00", "6.00", "1.50"},
		}},
		{"fig5", experiments.Fig5, [][]string{
			{"image_1", "12.00", "local", "1.00", "2.00", "3.00", "4.00", "6.00", "8.00", "12.00", "16.00", "24.00"},
			{"image_1", "12.00", "local+merge", "1.00", "1.50", "2.00", "2.00", "3.00", "4.00", "4.00", "6.00", "8.00"},
			{"image_2", "33.00", "local", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "0.00"},
			{"image_2", "33.00", "local+merge", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "1.71"},
		}},
	}
	for _, c := range cases {
		var sb strings.Builder
		c.render(&sb, reports[c.exp])
		out := sb.String()
		for _, want := range c.rows {
			if !hasRow(out, want) {
				t.Errorf("missing row %q in:\n%s", strings.Join(want, "  "), out)
			}
		}
	}
}

// hasRow reports whether some line of out consists of exactly the cells
// of row.
func hasRow(out string, row []string) bool {
	for _, line := range strings.Split(out, "\n") {
		if slices.Equal(strings.Fields(line), row) {
			return true
		}
	}
	return false
}
