package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// ConfigKey identifies one measured grid configuration: an algorithm over a
// dataset class at a thread count (0 = library default).
type ConfigKey struct {
	Algorithm string
	Class     string
	Threads   int
}

// String renders the key in the compact ALG/Class[@T] form the diff and
// policy machinery share.
func (k ConfigKey) String() string {
	if k.Threads == 0 {
		return k.Algorithm + "/" + k.Class
	}
	return fmt.Sprintf("%s/%s@%d", k.Algorithm, k.Class, k.Threads)
}

// ConfigStat is the per-configuration aggregate the analyzer derives from a
// report row: median and mean over the repeat samples, the sample extremes,
// and a normal-approximation 95% confidence interval on the mean. Rows
// without per-repeat samples (pre-grid reports) collapse to their single
// ns/op point.
type ConfigStat struct {
	ConfigKey
	Pixels      int64
	N           int // samples behind the aggregates
	MedianNs    int64
	MeanNs      int64
	MinNs       int64
	MaxNs       int64
	CI95LoNs    int64
	CI95HiNs    int64
	AllocsPerOp int64
}

// Analysis is a statistically digested BenchReport, ready for the table and
// curve writers.
type Analysis struct {
	Report *BenchReport
	Stats  []ConfigStat // report order
	byKey  map[ConfigKey]*ConfigStat
}

// Analyze aggregates every row of the report. Duplicate keys keep the first
// occurrence (grid configs are unique by construction).
func Analyze(rep *BenchReport) *Analysis {
	a := &Analysis{Report: rep, byKey: make(map[ConfigKey]*ConfigStat, len(rep.Results))}
	for _, r := range rep.Results {
		key := ConfigKey{r.Algorithm, r.Class, r.Threads}
		if _, dup := a.byKey[key]; dup {
			continue
		}
		st := statFromResult(key, r)
		a.Stats = append(a.Stats, st)
		a.byKey[key] = &a.Stats[len(a.Stats)-1]
	}
	return a
}

// Stat looks up one configuration's aggregate; nil when the report did not
// measure it.
func (a *Analysis) Stat(key ConfigKey) *ConfigStat { return a.byKey[key] }

// statFromResult computes the per-config statistics from the row's repeat
// samples, falling back to the single ns/op point for sample-less rows.
func statFromResult(key ConfigKey, r BenchResult) ConfigStat {
	st := ConfigStat{ConfigKey: key, Pixels: r.Pixels, AllocsPerOp: r.AllocsPerOp}
	samples := r.SampleNs
	if len(samples) == 0 {
		samples = []int64{r.NsPerOp}
	}
	st.N = len(samples)
	st.MedianNs = medianInt64(samples)
	st.MinNs, st.MaxNs = samples[0], samples[0]
	var sum float64
	for _, s := range samples {
		if s < st.MinNs {
			st.MinNs = s
		}
		if s > st.MaxNs {
			st.MaxNs = s
		}
		sum += float64(s)
	}
	mean := sum / float64(st.N)
	st.MeanNs = int64(mean)
	if st.N > 1 {
		var sq float64
		for _, s := range samples {
			d := float64(s) - mean
			sq += d * d
		}
		sd := math.Sqrt(sq / float64(st.N-1))
		half := 1.96 * sd / math.Sqrt(float64(st.N))
		st.CI95LoNs = int64(mean - half)
		st.CI95HiNs = int64(mean + half)
	} else {
		st.CI95LoNs, st.CI95HiNs = st.MeanNs, st.MeanNs
	}
	return st
}

// SeqBaselines maps each parallel algorithm to the sequential algorithm the
// paper measures its speedup against: the parallel variant of a scan should
// beat the best sequential run of the *same* scan, not merely its own
// single-threaded self.
var SeqBaselines = map[string]string{
	"PAREMSP": "ARemSP",
	"PBREMSP": "BREMSP",
}

// ScalingPoint is one thread count on a speedup-vs-threads curve.
type ScalingPoint struct {
	Threads int
	// MedianNs is the parallel algorithm's median at this thread count.
	MedianNs int64
	// SpeedupVsSeq is sequential-baseline median / this median; 0 when the
	// report has no baseline row for the class.
	SpeedupVsSeq float64
	// SpeedupSelf is the algorithm's own lowest-thread-count median / this
	// median (1.0 at the curve's first point by construction).
	SpeedupSelf float64
	// Efficiency is SpeedupVsSeq / Threads (parallel efficiency; 1.0 is
	// ideal linear scaling), falling back to SpeedupSelf / Threads when no
	// sequential baseline exists.
	Efficiency float64
}

// ScalingCurve is the speedup-vs-threads trajectory of one parallel
// algorithm over one class — the shape of the paper's headline figure.
type ScalingCurve struct {
	Algorithm string
	Baseline  string // sequential baseline algorithm, "" if absent
	Class     string
	Points    []ScalingPoint // ascending thread count, pinned rows only
}

// ScalingCurves derives every curve the report supports: for each parallel
// algorithm with pinned-thread rows (Threads > 0), one curve per class.
// Library-default rows (Threads == 0) stay out — an unpinned measurement
// has no x-coordinate on a threads axis.
func (a *Analysis) ScalingCurves() []ScalingCurve {
	type curveKey struct{ alg, class string }
	points := make(map[curveKey][]*ConfigStat)
	var order []curveKey
	for i := range a.Stats {
		st := &a.Stats[i]
		if st.Threads <= 0 {
			continue
		}
		k := curveKey{st.Algorithm, st.Class}
		if _, seen := points[k]; !seen {
			order = append(order, k)
		}
		points[k] = append(points[k], st)
	}
	curves := make([]ScalingCurve, 0, len(order))
	for _, k := range order {
		pts := points[k]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Threads < pts[j].Threads })
		curve := ScalingCurve{Algorithm: k.alg, Class: k.class}
		var seqNs int64
		if baseAlg, ok := SeqBaselines[k.alg]; ok {
			if st := a.Stat(ConfigKey{baseAlg, k.class, 0}); st != nil {
				curve.Baseline = baseAlg
				seqNs = st.MedianNs
			}
		}
		selfNs := pts[0].MedianNs
		for _, st := range pts {
			p := ScalingPoint{Threads: st.Threads, MedianNs: st.MedianNs}
			if st.MedianNs > 0 {
				if seqNs > 0 {
					p.SpeedupVsSeq = float64(seqNs) / float64(st.MedianNs)
				}
				if selfNs > 0 {
					p.SpeedupSelf = float64(selfNs) / float64(st.MedianNs)
				}
			}
			ref := p.SpeedupVsSeq
			if ref == 0 {
				ref = p.SpeedupSelf
			}
			p.Efficiency = ref / float64(st.Threads)
			curve.Points = append(curve.Points, p)
		}
		curves = append(curves, curve)
	}
	return curves
}

// ms renders nanoseconds as milliseconds with three decimals.
func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// WriteMarkdown renders the full analysis as a markdown document: the run
// environment, the per-configuration statistics, the speedup-vs-threads
// scaling tables (the paper's headline figure as numbers), the parallel
// efficiency tables, and — when baseline is non-nil — the trajectory
// against it, DiffReports' pairs.
func (a *Analysis) WriteMarkdown(w io.Writer, baseline *BenchReport) error {
	rep := a.Report
	tag := rep.Tag
	if tag == "" {
		tag = "(untagged)"
	}
	fmt.Fprintf(w, "# Benchmark analysis: %s\n\n", tag)
	fmt.Fprintf(w, "- go %s, GOMAXPROCS %d", strings.TrimPrefix(rep.GoVersion, "go"), rep.GOMAXPROCS)
	if rep.NumCPU > 0 {
		fmt.Fprintf(w, ", %d CPU(s)", rep.NumCPU)
	}
	if rep.GOOS != "" {
		fmt.Fprintf(w, ", %s/%s", rep.GOOS, rep.GOARCH)
	}
	fmt.Fprintln(w)
	if rep.GitRev != "" {
		fmt.Fprintf(w, "- git revision %s\n", rep.GitRev)
	}
	fmt.Fprintf(w, "- scale %g, %d repeat(s) per configuration\n\n", rep.Scale, rep.Repeats)

	fmt.Fprintln(w, "## Per-configuration statistics")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Algorithm | Class | Threads | Median ms | Mean ms | Min ms | Max ms | 95% CI ms | Allocs/op |")
	fmt.Fprintln(w, "|---|---|--:|--:|--:|--:|--:|--:|--:|")
	for i := range a.Stats {
		st := &a.Stats[i]
		threads := "default"
		if st.Threads > 0 {
			threads = fmt.Sprintf("%d", st.Threads)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s–%s | %d |\n",
			st.Algorithm, st.Class, threads, ms(st.MedianNs), ms(st.MeanNs),
			ms(st.MinNs), ms(st.MaxNs), ms(st.CI95LoNs), ms(st.CI95HiNs), st.AllocsPerOp)
	}
	fmt.Fprintln(w)

	curves := a.ScalingCurves()
	writeCurveTables(w, curves, "## Speedup vs threads",
		"Speedup of the parallel algorithm against its sequential baseline (self-relative when no baseline row exists); the paper's core scaling claim.",
		func(p ScalingPoint) float64 {
			if p.SpeedupVsSeq > 0 {
				return p.SpeedupVsSeq
			}
			return p.SpeedupSelf
		})
	writeCurveTables(w, curves, "## Parallel efficiency",
		"Speedup divided by thread count; 1.00 is ideal linear scaling.",
		func(p ScalingPoint) float64 { return p.Efficiency })

	if baseline != nil {
		writeTrajectoryMarkdown(w, DiffReports(baseline, rep, 0, nil), baseline, rep)
	}
	return nil
}

// writeCurveTables renders one markdown table per parallel algorithm: rows
// are classes, columns are thread counts, cells come from the value
// extractor.
func writeCurveTables(w io.Writer, curves []ScalingCurve, title, caption string, value func(ScalingPoint) float64) {
	byAlg := map[string][]ScalingCurve{}
	var algOrder []string
	threadSet := map[int]bool{}
	for _, c := range curves {
		if _, seen := byAlg[c.Algorithm]; !seen {
			algOrder = append(algOrder, c.Algorithm)
		}
		byAlg[c.Algorithm] = append(byAlg[c.Algorithm], c)
		for _, p := range c.Points {
			threadSet[p.Threads] = true
		}
	}
	if len(algOrder) == 0 {
		return
	}
	threads := make([]int, 0, len(threadSet))
	for th := range threadSet {
		threads = append(threads, th)
	}
	sort.Ints(threads)

	fmt.Fprintf(w, "%s\n\n%s\n\n", title, caption)
	for _, alg := range algOrder {
		algCurves := byAlg[alg]
		base := algCurves[0].Baseline
		if base == "" {
			base = alg + " @ lowest thread count"
		}
		fmt.Fprintf(w, "### %s (baseline: %s)\n\n", alg, base)
		fmt.Fprint(w, "| Class |")
		for _, th := range threads {
			fmt.Fprintf(w, " T=%d |", th)
		}
		fmt.Fprint(w, "\n|---|")
		for range threads {
			fmt.Fprint(w, "--:|")
		}
		fmt.Fprintln(w)
		for _, c := range algCurves {
			fmt.Fprintf(w, "| %s |", c.Class)
			byThreads := map[int]ScalingPoint{}
			for _, p := range c.Points {
				byThreads[p.Threads] = p
			}
			for _, th := range threads {
				if p, ok := byThreads[th]; ok {
					fmt.Fprintf(w, " %.2f |", value(p))
				} else {
					fmt.Fprint(w, " – |")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// writeTrajectoryMarkdown renders the trajectory section of the analysis
// document.
func writeTrajectoryMarkdown(w io.Writer, d *DiffSummary, baseRep, curRep *BenchReport) {
	baseTag, curTag := baseRep.Tag, curRep.Tag
	if baseTag == "" {
		baseTag = "baseline"
	}
	if curTag == "" {
		curTag = "current"
	}
	fmt.Fprintf(w, "## Trajectory: %s → %s\n\n", baseTag, curTag)
	var faster, slower, flat int
	for _, p := range d.Pairs {
		switch {
		case p.Ratio > 1.05:
			slower++
		case p.Ratio < 0.95:
			faster++
		default:
			flat++
		}
	}
	fmt.Fprintf(w, "%d shared configuration(s): %d faster (>5%%), %d slower (>5%%), %d flat; %d added, %d removed.\n\n",
		len(d.Pairs), faster, slower, flat, len(d.Added), len(d.Removed))
	if len(d.Pairs) > 0 {
		fmt.Fprintln(w, "| Configuration | Base ms | Current ms | Ratio |")
		fmt.Fprintln(w, "|---|--:|--:|--:|")
		for _, p := range d.Pairs {
			fmt.Fprintf(w, "| %s | %s | %s | %.2f |\n", p.Key, ms(p.BaseNs), ms(p.CurNs), p.Ratio)
		}
		fmt.Fprintln(w)
	}
	writeKeyList(w, "Added (no baseline measurement)", d.Added)
	writeKeyList(w, "Removed (no longer measured)", d.Removed)
}

func writeKeyList(w io.Writer, title string, keys []ConfigKey) {
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "### %s\n\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "- %s\n", k)
	}
	fmt.Fprintln(w)
}

// WriteConfigsCSV renders the per-configuration statistics as CSV (one row
// per configuration, ns units, machine-consumable mirror of the markdown
// table).
func (a *Analysis) WriteConfigsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "algorithm,class,threads,pixels,samples,median_ns,mean_ns,min_ns,max_ns,ci95_lo_ns,ci95_hi_ns,allocs_per_op"); err != nil {
		return err
	}
	for i := range a.Stats {
		st := &a.Stats[i]
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			st.Algorithm, st.Class, st.Threads, st.Pixels, st.N, st.MedianNs, st.MeanNs,
			st.MinNs, st.MaxNs, st.CI95LoNs, st.CI95HiNs, st.AllocsPerOp); err != nil {
			return err
		}
	}
	return nil
}

// WriteScalingCSV renders the scaling curves as CSV (one row per curve
// point).
func (a *Analysis) WriteScalingCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "algorithm,baseline,class,threads,median_ns,speedup_vs_seq,speedup_self,efficiency"); err != nil {
		return err
	}
	for _, c := range a.ScalingCurves() {
		for _, p := range c.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%.4f,%.4f,%.4f\n",
				c.Algorithm, c.Baseline, c.Class, p.Threads, p.MedianNs,
				p.SpeedupVsSeq, p.SpeedupSelf, p.Efficiency); err != nil {
				return err
			}
		}
	}
	return nil
}
