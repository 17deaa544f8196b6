package cli_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	paremsp "repro"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/stream"
)

// writePBM writes a small deterministic test image and returns its path.
func writePBM(t *testing.T) string {
	t.Helper()
	img := dataset.Blobs(64, 48, 6, 2, 5, 3)
	path := filepath.Join(t.TempDir(), "input.pbm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := paremsp.EncodePBM(f, img, true); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCCLabelBasic(t *testing.T) {
	path := writePBM(t)
	var out, errw bytes.Buffer
	code := cli.CCLabel([]string{"-alg", "aremsp", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "components") || !strings.Contains(s, "64x48") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

func TestCCLabelStatsAndContours(t *testing.T) {
	path := writePBM(t)
	var out, errw bytes.Buffer
	code := cli.CCLabel([]string{"-alg", "floodfill", "-stats", "-contours", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "centroid") || !strings.Contains(s, "perimeter") {
		t.Fatalf("missing stats/contours sections:\n%s", s)
	}
}

func TestCCLabelWritesOutput(t *testing.T) {
	path := writePBM(t)
	outPath := filepath.Join(t.TempDir(), "labels.pgm")
	var out, errw bytes.Buffer
	code := cli.CCLabel([]string{"-o", outPath, path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("P5\n")) {
		t.Fatalf("output is not a PGM: %q", data[:8])
	}
	// PNG output too.
	pngPath := filepath.Join(t.TempDir(), "labels.png")
	if code := cli.CCLabel([]string{"-o", pngPath, path}, &out, &errw); code != 0 {
		t.Fatalf("png exit %d", code)
	}
	if fi, err := os.Stat(pngPath); err != nil || fi.Size() == 0 {
		t.Fatal("png output missing or empty")
	}
}

func TestCCLabelErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli.CCLabel([]string{}, &out, &errw); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := cli.CCLabel([]string{"/nonexistent/x.pbm"}, &out, &errw); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	path := writePBM(t)
	if code := cli.CCLabel([]string{"-alg", "bogus", path}, &out, &errw); code != 1 {
		t.Errorf("bad algorithm: exit %d, want 1", code)
	}
	txt := filepath.Join(t.TempDir(), "x.txt")
	os.WriteFile(txt, []byte("hi"), 0o644)
	if code := cli.CCLabel([]string{txt}, &out, &errw); code != 1 {
		t.Errorf("bad extension: exit %d, want 1", code)
	}
	if code := cli.CCLabel([]string{"-o", filepath.Join(t.TempDir(), "x.bmp"), path}, &out, &errw); code != 1 {
		t.Errorf("bad output extension: exit %d, want 1", code)
	}
}

func TestGenImgToFileAndRoundTrip(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "gen.pbm")
	var out, errw bytes.Buffer
	code := cli.GenImg([]string{"-kind", "serpentine", "-w", "64", "-h", "40", "-o", outPath}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := paremsp.DecodePNM(f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if img.Width != 64 || img.Height != 40 {
		t.Fatalf("generated %dx%d, want 64x40", img.Width, img.Height)
	}
	// A serpentine is one component.
	res, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
	if err != nil || res.NumComponents != 1 {
		t.Fatalf("serpentine components = %d (err %v), want 1", res.NumComponents, err)
	}
}

func TestGenImgAllKindsToStdout(t *testing.T) {
	for _, kind := range []string{"noise", "checker", "stripes", "blobs", "serpentine",
		"rings", "landcover", "aerial", "texture", "text", "misc"} {
		var out, errw bytes.Buffer
		code := cli.GenImg([]string{"-kind", kind, "-w", "48", "-h", "32"}, &out, &errw)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", kind, code, errw.String())
		}
		img, err := paremsp.DecodePNM(bytes.NewReader(out.Bytes()), 0.5)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if img.Width != 48 || img.Height != 32 {
			t.Fatalf("%s: got %dx%d", kind, img.Width, img.Height)
		}
	}
}

func TestGenImgUnknownKind(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli.GenImg([]string{"-kind", "bogus"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestPaperBenchSingleExperiments(t *testing.T) {
	for exp, want := range map[string]string{
		"table3": "Table III",
		"fig3":   "Figure 3",
	} {
		var out, errw bytes.Buffer
		code := cli.PaperBench([]string{"-exp", exp, "-scale", "0.001", "-repeats", "1", "-warmup", "0"}, &out, &errw)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", exp, code, errw.String())
		}
		if !strings.Contains(out.String(), want) {
			t.Fatalf("%s output missing %q:\n%s", exp, want, out.String())
		}
	}
}

func TestPaperBenchBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli.PaperBench([]string{"-scale", "3"}, &out, &errw); code != 2 {
		t.Errorf("scale 3: exit %d, want 2", code)
	}
	if code := cli.PaperBench([]string{"-repeats", "0"}, &out, &errw); code != 2 {
		t.Errorf("repeats 0: exit %d, want 2", code)
	}
	if code := cli.PaperBench([]string{"-exp", "bogus"}, &out, &errw); code != 2 {
		t.Errorf("bogus experiment: exit %d, want 2", code)
	}
	if code := cli.PaperBench([]string{"-badflag"}, &out, &errw); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

func TestCCStreamRoundTrip(t *testing.T) {
	path := writePBM(t)
	outPath := filepath.Join(t.TempDir(), "labels.ccl")
	var out, errw bytes.Buffer
	code := cli.CCStream([]string{"-o", outPath, path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "components") {
		t.Fatalf("unexpected output: %s", out.String())
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lm, n, err := stream.ReadLabels(f)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || lm.Width != 64 || lm.Height != 48 {
		t.Fatalf("bad label stream: %dx%d, %d components", lm.Width, lm.Height, n)
	}
}

func TestCCStreamErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli.CCStream([]string{}, &out, &errw); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := cli.CCStream([]string{"/nonexistent.pbm"}, &out, &errw); code != 1 {
		t.Errorf("missing input: exit %d, want 1", code)
	}
}

func TestCCServeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"positional"},
		{"-max-bytes", "-5"},
		{"-level", "0"},
		{"-level", "1.5"},
		{"-job-ttl", "-1s"},
		{"-job-ttl", "0s"},
		{"-job-max-bytes", "-1"},
		{"-job-store", "sqlite"}, // durable backend without -job-dir
		{"-job-dir", "/tmp"},     // a directory the memory store would ignore
		{"-job-store", "nonsense", "-job-dir", "/tmp"},
		{"-log-level", "loud"},
		{"-log-format", "xml"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli.CCServe(args, &stdout, &stderr); code != 2 {
			t.Fatalf("CCServe(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestPaperBenchJSON checks the -json report run without -grid: it must
// hold exactly BENCH_seed.json's configurations, or the CI diff against the
// seed compares nothing, and every row must carry one sample per repeat.
func TestPaperBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errw bytes.Buffer
	code := cli.PaperBench([]string{"-json", path, "-scale", "0.001", "-repeats", "2", "-warmup", "0"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report experiments.BenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if report.Scale != 0.001 || report.Repeats != 2 {
		t.Fatalf("unexpected report: %+v", report)
	}
	f, err := os.Open(filepath.Join("..", "..", "BENCH_seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seed, err := experiments.ReadBenchReport(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[experiments.ConfigKey]bool{}
	for _, r := range seed.Results {
		want[experiments.ConfigKey{Algorithm: r.Algorithm, Class: r.Class, Threads: r.Threads}] = true
	}
	got := map[experiments.ConfigKey]bool{}
	for _, r := range report.Results {
		key := experiments.ConfigKey{Algorithm: r.Algorithm, Class: r.Class, Threads: r.Threads}
		if got[key] || !want[key] {
			t.Fatalf("row %s is repeated or not in BENCH_seed.json", key)
		}
		got[key] = true
		if r.NsPerOp <= 0 || r.Pixels <= 0 || len(r.SampleNs) != 2 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("report has %d of BENCH_seed.json's %d configurations", len(got), len(want))
	}
}

func TestPaperBenchJSONStdout(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli.PaperBench([]string{"-json", "-", "-scale", "0.001", "-repeats", "1", "-warmup", "0"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	var report experiments.BenchReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("stdout not JSON: %v", err)
	}
}

func TestCCServeRejectsUnknownAlg(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli.CCServe([]string{"-alg", "nonsense"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown -alg") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}
