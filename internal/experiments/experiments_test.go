package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tinyConfig keeps the runner tests fast: the smallest images the spec
// machinery allows, one repetition.
var tinyConfig = experiments.Config{Scale: 0.001, Repeats: 1, Warmup: 0}

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
	experiments.Table2(&sb, tinyConfig)
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
	experiments.Table3(&sb, tinyConfig)
	out := sb.String()
	for _, want := range []string{"Table III", "image_1", "image_6", "465.20"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III output missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Table4(&sb, tinyConfig)
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
	experiments.Fig4(&sb, tinyConfig)
	out := sb.String()
	for _, want := range []string{"Figure 4", "Aerial", "Misc", "Texture", "T=24"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Renders(t *testing.T) {
	var sb strings.Builder
	experiments.Fig5(&sb, tinyConfig)
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
	experiments.Fig3(&sb, tinyConfig)
	out := sb.String()
	for _, want := range []string{"Figure 3", "grayscale", "binary", "Components"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationsRenders(t *testing.T) {
	var sb strings.Builder
	experiments.Ablations(&sb, tinyConfig)
	out := sb.String()
	for _, want := range []string{"Ablations", "REMSP (paper)", "lock-free CAS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablations output missing %q:\n%s", want, out)
		}
	}
}

func TestWeakScalingRenders(t *testing.T) {
	var sb strings.Builder
	experiments.WeakScaling(&sb, tinyConfig)
	out := sb.String()
	for _, want := range []string{"Weak scaling", "Efficiency", "24"} {
		if !strings.Contains(out, want) {
			t.Fatalf("weak-scaling output missing %q:\n%s", want, out)
		}
	}
}
