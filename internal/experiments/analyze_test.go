package experiments_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// fixtureReport is a hand-written grid report with arithmetic simple enough
// to verify by eye: BREMSP is the sequential baseline for PBREMSP, which
// halves its time from one thread to two and stalls at four.
func fixtureReport() *experiments.BenchReport {
	srow := func(alg, class string, threads int, pixels int64, samples ...int64) experiments.BenchResult {
		// NsPerOp is the median repeat, as RunGrid sets it.
		sorted := slices.Sorted(slices.Values(samples))
		r := trow(alg, class, threads, sorted[(len(sorted)-1)/2])
		r.Pixels = pixels
		r.SampleNs = samples
		r.AllocsPerOp = 7
		return r
	}
	return &experiments.BenchReport{
		Tag:        "fixture",
		Scale:      0.05,
		Repeats:    3,
		GoVersion:  "go1.23.0",
		GOMAXPROCS: 4,
		NumCPU:     4,
		GOOS:       "linux",
		GOARCH:     "amd64",
		GitRev:     "abc1234",
		Results: []experiments.BenchResult{
			srow("BREMSP", "Aerial", 0, 1000, 1_000_000, 1_200_000, 1_100_000),
			srow("PBREMSP", "Aerial", 1, 1000, 1_000_000, 1_300_000, 1_000_000),
			srow("PBREMSP", "Aerial", 2, 1000, 500_000, 500_000, 500_000),
			srow("PBREMSP", "Aerial", 4, 1000, 400_000, 400_000, 400_000),
			// No sequential BREMSP row for Texture: the curve falls back to
			// self-relative speedup.
			srow("PBREMSP", "Texture", 1, 2000, 2_000_000, 2_000_000, 2_000_000),
			srow("PBREMSP", "Texture", 2, 2000, 1_000_000, 1_000_000, 1_000_000),
			// A sample-less legacy row (pre-grid report shape).
			{Algorithm: "ARemSP", Class: "Aerial", NsPerOp: 900_000, Pixels: 1000},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestAnalyzeStats(t *testing.T) {
	a := experiments.Analyze(fixtureReport())
	st := a.Stat(experiments.ConfigKey{Algorithm: "BREMSP", Class: "Aerial"})
	if st == nil {
		t.Fatal("BREMSP/Aerial missing from analysis")
	}
	if st.N != 3 || st.MedianNs != 1_100_000 || st.MeanNs != 1_100_000 ||
		st.MinNs != 1_000_000 || st.MaxNs != 1_200_000 {
		t.Fatalf("BREMSP/Aerial stat = %+v", st)
	}
	// Samples {1.0, 1.1, 1.2}ms: sd = 100000, CI half-width = 1.96·sd/√3
	// (endpoints truncate from float independently).
	half := 1.96 * 100_000 / math.Sqrt(3)
	wantLo, wantHi := int64(1_100_000-half), int64(1_100_000+half)
	if st.CI95LoNs != wantLo || st.CI95HiNs != wantHi {
		t.Fatalf("CI = [%d, %d], want [%d, %d]", st.CI95LoNs, st.CI95HiNs, wantLo, wantHi)
	}
	// Sample-less legacy row: point statistics, degenerate CI.
	legacy := a.Stat(experiments.ConfigKey{Algorithm: "ARemSP", Class: "Aerial"})
	if legacy == nil || legacy.N != 1 || legacy.MedianNs != 900_000 ||
		legacy.CI95LoNs != 900_000 || legacy.CI95HiNs != 900_000 {
		t.Fatalf("legacy stat = %+v", legacy)
	}
}

func TestScalingCurves(t *testing.T) {
	curves := experiments.Analyze(fixtureReport()).ScalingCurves()
	if len(curves) != 2 {
		t.Fatalf("got %d curves, want 2: %+v", len(curves), curves)
	}
	aerial := curves[0]
	if aerial.Algorithm != "PBREMSP" || aerial.Class != "Aerial" || aerial.Baseline != "BREMSP" {
		t.Fatalf("curve 0 = %+v", aerial)
	}
	if len(aerial.Points) != 3 {
		t.Fatalf("aerial points = %+v", aerial.Points)
	}
	// Seq median 1.1ms over 1.0/0.5/0.4ms.
	wantSeq := []float64{1.1, 2.2, 2.75}
	for i, p := range aerial.Points {
		if math.Abs(p.SpeedupVsSeq-wantSeq[i]) > 1e-9 {
			t.Errorf("aerial point %d speedup = %v, want %v", i, p.SpeedupVsSeq, wantSeq[i])
		}
		if math.Abs(p.Efficiency-wantSeq[i]/float64(p.Threads)) > 1e-9 {
			t.Errorf("aerial point %d efficiency = %v", i, p.Efficiency)
		}
	}
	texture := curves[1]
	if texture.Baseline != "" {
		t.Fatalf("texture curve has unexpected baseline %q", texture.Baseline)
	}
	if texture.Points[1].SpeedupSelf != 2.0 || texture.Points[1].Efficiency != 1.0 {
		t.Fatalf("texture point 1 = %+v", texture.Points[1])
	}
}

// TestSpeedupAtLowestThreadCountIsOne is the analyzer's anchor property:
// every curve's self-relative speedup is exactly 1.0 at its first point, and
// when the grid actually measured one thread, the point sits at T=1. Run on
// the fixture and on a real (tiny) grid sweep.
func TestSpeedupAtLowestThreadCountIsOne(t *testing.T) {
	reports := map[string]*experiments.BenchReport{"fixture": fixtureReport()}
	if !testing.Short() {
		cfg := &experiments.GridConfig{
			Scale: 0.001, Repeats: 2,
			Algorithms: []string{"BREMSP", "PBREMSP"},
			Classes:    []string{"Aerial"},
			GOMAXPROCS: []int{1, 2},
		}
		reports["grid"] = experiments.RunGrid(cfg, experiments.GridMeta{})
	}
	const tol = 1e-9
	for name, rep := range reports {
		for _, c := range experiments.Analyze(rep).ScalingCurves() {
			if len(c.Points) == 0 {
				t.Fatalf("%s: curve %s/%s has no points", name, c.Algorithm, c.Class)
			}
			p0 := c.Points[0]
			if math.Abs(p0.SpeedupSelf-1.0) > tol {
				t.Errorf("%s: %s/%s self speedup at T=%d is %v, want 1.0",
					name, c.Algorithm, c.Class, p0.Threads, p0.SpeedupSelf)
			}
			if p0.Threads == 1 && math.Abs(p0.Efficiency-math.Max(p0.SpeedupVsSeq, p0.SpeedupSelf)) > tol &&
				p0.SpeedupVsSeq == 0 {
				t.Errorf("%s: %s/%s efficiency at T=1 is %v, want its speedup",
					name, c.Algorithm, c.Class, p0.Efficiency)
			}
		}
	}
}

func TestAnalysisGoldens(t *testing.T) {
	cur := experiments.Analyze(fixtureReport())

	// The trajectory baseline: same grid, uniformly slower PBREMSP rows plus
	// one configuration the current report no longer measures.
	baseRep := fixtureReport()
	baseRep.Tag = "fixture-base"
	for i := range baseRep.Results {
		r := &baseRep.Results[i]
		if r.Algorithm == "PBREMSP" {
			r.NsPerOp = r.NsPerOp * 2
			for j := range r.SampleNs {
				r.SampleNs[j] *= 2
			}
		}
	}
	gone := trow("CCLLRPC", "Aerial", 0, 3_000_000)
	gone.Pixels = 1000
	baseRep.Results = append(baseRep.Results, gone)

	var md bytes.Buffer
	if err := cur.WriteMarkdown(&md, baseRep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "analysis_golden.md", md.Bytes())

	var configs bytes.Buffer
	if err := cur.WriteConfigsCSV(&configs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "configs_golden.csv", configs.Bytes())

	var scaling bytes.Buffer
	if err := cur.WriteScalingCSV(&scaling); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scaling_golden.csv", scaling.Bytes())
}
