package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReadBenchReport decodes a BenchReport previously written by
// cmd/paperbench -json (e.g. the checked-in BENCH_seed.json).
func ReadBenchReport(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("experiments: decoding bench report: %w", err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("experiments: bench report has no results")
	}
	return &rep, nil
}

// Pair is one configuration both reports measured over the same pixel
// count with a positive baseline ns/op.
type Pair struct {
	Key    ConfigKey
	BaseNs int64
	CurNs  int64
	// Ratio is CurNs / BaseNs (1.30 = 30% slower than the baseline, < 1
	// faster).
	Ratio float64
	// Tolerance is the regression threshold this pair is judged against.
	Tolerance float64
	// Allowed marks a pair on the policy's allowlist: its regression is
	// reported, but not gating.
	Allowed bool
}

// Policy tunes the regression gate per benchmark. The zero value applies
// DefaultTolerance to everything (and a zero DefaultTolerance means the
// caller's flag-level tolerance is used instead).
type Policy struct {
	// DefaultTolerance is the ns/op regression tolerance applied to every
	// configuration without an override (0.25 = fail beyond +25%).
	DefaultTolerance float64 `json:"default_tolerance"`
	// Overrides maps configuration keys — "ALG/Class" or "ALG/Class@T",
	// see ConfigKey.String — to their own tolerance. Benchmarks known to be
	// noisy get looser thresholds without loosening the whole gate.
	Overrides map[string]float64 `json:"overrides"`
	// Allow lists configuration keys whose regressions are reported but
	// never fail the gate: the escape hatch for an accepted, understood
	// slowdown (remove the entry once the baseline is regenerated).
	Allow []string `json:"allow"`
}

// ReadPolicy decodes and validates a regression policy file.
func ReadPolicy(r io.Reader) (*Policy, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Policy
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("experiments: decoding regression policy: %w", err)
	}
	if p.DefaultTolerance < 0 {
		return nil, fmt.Errorf("experiments: policy default_tolerance %v < 0", p.DefaultTolerance)
	}
	for key, tol := range p.Overrides {
		if tol <= 0 {
			return nil, fmt.Errorf("experiments: policy override %q has non-positive tolerance %v", key, tol)
		}
	}
	return &p, nil
}

// tolerance resolves the threshold for one configuration.
func (p *Policy) tolerance(key ConfigKey) float64 {
	if p == nil {
		return 0
	}
	if tol, ok := p.Overrides[key.String()]; ok {
		return tol
	}
	return p.DefaultTolerance
}

// allowed reports whether the key is on the escape-hatch allowlist.
func (p *Policy) allowed(key ConfigKey) bool {
	if p == nil {
		return false
	}
	for _, k := range p.Allow {
		if k == key.String() {
			return true
		}
	}
	return false
}

// DiffSummary is the outcome of comparing a fresh report against a
// baseline: every compared pair (worst ratio first), and the configurations
// only one side measured. Added/Removed exist because grids evolve between
// PRs — a changed benchmark set must be visible, not an error and not
// silence.
type DiffSummary struct {
	Pairs   []Pair
	Added   []ConfigKey // in cur only (or pixel-count mismatch)
	Removed []ConfigKey // in base only (or pixel-count mismatch)
}

// Regressions returns the pairs whose ns/op worsened beyond their
// tolerance, worst first, allowlisted ones flagged rather than omitted.
func (d *DiffSummary) Regressions() []Pair {
	var out []Pair
	for _, p := range d.Pairs {
		if p.Ratio > 1+p.Tolerance {
			out = append(out, p)
		}
	}
	return out
}

// Gating returns the regressions that should fail a gate: beyond tolerance
// and not allowlisted.
func (d *DiffSummary) Gating() []Pair {
	var out []Pair
	for _, p := range d.Regressions() {
		if !p.Allowed {
			out = append(out, p)
		}
	}
	return out
}

// DiffReports compares a fresh report against a baseline by ns/op, which
// RunGrid sets to a row's median repeat. A pair is comparable when both
// reports measured the same ConfigKey (algorithm, class, threads) over the
// same pixel count with a positive baseline ns/op; everything else lands on
// the Added/Removed lists (a -scale mismatch makes ns/op incomparable, so
// mismatched pixel counts count as both added and removed). tolerance is
// the default threshold; a non-nil policy overrides it per configuration
// and supplies the allowlist. Callers should treat an empty Pairs as "no
// check happened", not as a pass. ns/op is machine-relative, so a diff is
// only meaningful when both reports come from the same machine class.
func DiffReports(base, cur *BenchReport, tolerance float64, policy *Policy) *DiffSummary {
	type baseRow struct {
		ns, pixels int64
		matched    bool
	}
	baseNs := make(map[ConfigKey]*baseRow, len(base.Results))
	baseOrder := make([]ConfigKey, 0, len(base.Results))
	for _, r := range base.Results {
		key := ConfigKey{r.Algorithm, r.Class, r.Threads}
		if _, dup := baseNs[key]; dup {
			continue
		}
		baseNs[key] = &baseRow{ns: r.NsPerOp, pixels: r.Pixels}
		baseOrder = append(baseOrder, key)
	}
	d := &DiffSummary{}
	for _, r := range cur.Results {
		key := ConfigKey{r.Algorithm, r.Class, r.Threads}
		br, ok := baseNs[key]
		if !ok || br.pixels != r.Pixels {
			d.Added = append(d.Added, key)
			continue
		}
		br.matched = true
		if br.ns <= 0 {
			continue
		}
		tol := tolerance
		if policy != nil && policy.tolerance(key) > 0 {
			tol = policy.tolerance(key)
		}
		d.Pairs = append(d.Pairs, Pair{
			Key:       key,
			BaseNs:    br.ns,
			CurNs:     r.NsPerOp,
			Ratio:     float64(r.NsPerOp) / float64(br.ns),
			Tolerance: tol,
			Allowed:   policy.allowed(key),
		})
	}
	for _, key := range baseOrder {
		if !baseNs[key].matched {
			d.Removed = append(d.Removed, key)
		}
	}
	sort.SliceStable(d.Pairs, func(i, j int) bool { return d.Pairs[i].Ratio > d.Pairs[j].Ratio })
	return d
}
