package cli_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/experiments"
)

// writeBaseline runs the tiny benchmark once and writes it back with every
// ns/op scaled, producing a deterministic baseline that a fresh run is
// guaranteed to beat (scale up) or regress against (scale down) regardless
// of machine noise.
func writeBaseline(t *testing.T, scaleNs int64, div bool) string {
	t.Helper()
	report := experiments.RunGrid(&experiments.GridConfig{Scale: 0.001, Repeats: 1}, experiments.GridMeta{})
	for i := range report.Results {
		if div {
			report.Results[i].NsPerOp /= scaleNs
			if report.Results[i].NsPerOp == 0 {
				report.Results[i].NsPerOp = 1
			}
		} else {
			report.Results[i].NsPerOp *= scaleNs
		}
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPaperBenchDiffClean(t *testing.T) {
	base := writeBaseline(t, 1000, false) // baseline 1000x slower: cannot regress
	var out, errw bytes.Buffer
	code := cli.PaperBench([]string{"-scale", "0.001", "-repeats", "1", "-warmup", "0", "-diff", base}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stdout: %s, stderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "no gating ns/op regressions") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

// TestPaperBenchDiffPolicyAllowlist verifies the escape hatch end to end: a
// run that regresses on every pair exits clean when every configuration is
// allowlisted, and the allowlisted regressions are still reported.
func TestPaperBenchDiffPolicyAllowlist(t *testing.T) {
	base := writeBaseline(t, 1000, true) // baseline 1000x faster: every pair regresses
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	policy := experiments.Policy{DefaultTolerance: 0.25}
	for _, r := range rep.Results {
		policy.Allow = append(policy.Allow,
			experiments.ConfigKey{Algorithm: r.Algorithm, Class: r.Class, Threads: r.Threads}.String())
	}
	policyPath := filepath.Join(t.TempDir(), "policy.json")
	praw, err := json.Marshal(policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(policyPath, praw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	code := cli.PaperBench([]string{"-scale", "0.001", "-repeats", "1", "-warmup", "0",
		"-diff", base, "-regress-policy", policyPath}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stdout: %s, stderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "allowlisted regression") {
		t.Fatalf("allowlisted regressions not reported: %s", out.String())
	}
}

func TestPaperBenchDiffRegression(t *testing.T) {
	base := writeBaseline(t, 1000, true) // baseline 1000x faster: every pair regresses
	var out, errw bytes.Buffer
	code := cli.PaperBench([]string{"-scale", "0.001", "-repeats", "1", "-warmup", "0", "-diff", base}, &out, &errw)
	if code != 3 {
		t.Fatalf("exit %d, want 3; stdout: %s, stderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "regression(s)") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

func TestPaperBenchDiffErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := cli.PaperBench([]string{"-diff", "/nonexistent.json"}, &out, &errw); code != 1 {
		t.Errorf("missing baseline: exit %d, want 1", code)
	}
}
