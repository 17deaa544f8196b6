package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	paremsp "repro"
	"repro/internal/binimg"
)

// GridAlg is one algorithm the grid runner can sweep: the name its report
// rows carry and the library algorithm it labels with. The algorithms whose
// labelings split their raster (paremsp.Options.Splits) are measured at
// every configured GOMAXPROCS value; the others ignore the thread axis and
// are measured once per class, with Threads recorded as 0.
type GridAlg struct {
	Name      string
	Algorithm paremsp.Algorithm
}

// GridAlgs is the closed algorithm registry of the grid runner, in report
// row order: the paper's four sequential algorithms, BREMSP, then the two
// parallel algorithms.
var GridAlgs = []GridAlg{
	{"CCLLRPC", paremsp.AlgCCLLRPC},
	{"CCLRemSP", paremsp.AlgCCLREMSP},
	{"ARun", paremsp.AlgARUN},
	{"ARemSP", paremsp.AlgAREMSP},
	{"BREMSP", paremsp.AlgBREMSP},
	{"PAREMSP", paremsp.AlgPAREMSP},
	{"PBREMSP", paremsp.AlgPBREMSP},
}

// GridConfig is the declarative experiment grid cmd/paperbench -grid runs:
// the checked-in experiments.json at the repository root is one of these.
// The sweep is algorithm × class × gomaxprocs × repeats; sequential
// algorithms collapse the thread axis.
type GridConfig struct {
	// Tag names the run; the emitted report carries it (BENCH_<tag>.json by
	// convention).
	Tag string `json:"tag"`
	// Scale is the image-size scale factor in (0, 1]; 1.0 is the paper's
	// sizes (see the package comment).
	Scale float64 `json:"scale"`
	// Repeats is the number of timed repetitions per configuration (>= 1).
	Repeats int `json:"repeats"`
	// Warmup is the number of untimed runs before the timed ones.
	Warmup int `json:"warmup"`
	// Algorithms selects registry entries by name; empty means all of
	// GridAlgs.
	Algorithms []string `json:"algorithms"`
	// Classes selects dataset classes from ClassOrder; empty means all.
	Classes []string `json:"classes"`
	// GOMAXPROCS is the thread axis for parallel algorithms: each value T>0
	// pins runtime.GOMAXPROCS(T) and the algorithm's thread count for the
	// measurement; 0 measures at the library default (unpinned), the point
	// BENCH_seed.json holds. Empty means [0].
	GOMAXPROCS []int `json:"gomaxprocs"`
}

// ReadGridConfig decodes and validates a GridConfig. Unknown fields are
// rejected so a typoed axis name fails loudly instead of silently shrinking
// the sweep.
func ReadGridConfig(r io.Reader) (*GridConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg GridConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("experiments: decoding grid config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Validate checks the config against the registry and the axis domains.
func (cfg *GridConfig) Validate() error {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return fmt.Errorf("experiments: grid scale %v out of (0, 1]", cfg.Scale)
	}
	if cfg.Repeats < 1 {
		return fmt.Errorf("experiments: grid repeats %d < 1", cfg.Repeats)
	}
	if cfg.Warmup < 0 {
		return fmt.Errorf("experiments: grid warmup %d < 0", cfg.Warmup)
	}
	for _, name := range cfg.Algorithms {
		if !slices.ContainsFunc(GridAlgs, func(a GridAlg) bool { return a.Name == name }) {
			return fmt.Errorf("experiments: unknown grid algorithm %q", name)
		}
	}
	for _, class := range cfg.Classes {
		if !slices.Contains(ClassOrder, class) {
			return fmt.Errorf("experiments: unknown grid class %q (want one of %v)", class, ClassOrder)
		}
	}
	for _, th := range cfg.GOMAXPROCS {
		if th < 0 {
			return fmt.Errorf("experiments: grid gomaxprocs value %d < 0", th)
		}
	}
	return nil
}

// algorithms returns the selected registry entries in registry order.
func (cfg *GridConfig) algorithms() []GridAlg {
	return selected(GridAlgs, cfg.Algorithms, func(a GridAlg) string { return a.Name })
}

// classes returns the selected class names in ClassOrder.
func (cfg *GridConfig) classes() []string {
	return selected(ClassOrder, cfg.Classes, func(class string) string { return class })
}

// selected returns the entries of all whose name is in names, in all's
// order; every entry when names is empty.
func selected[T any](all []T, names []string, name func(T) string) []T {
	if len(names) == 0 {
		return all
	}
	var out []T
	for _, e := range all {
		if slices.Contains(names, name(e)) {
			out = append(out, e)
		}
	}
	return out
}

// threadAxis returns the GOMAXPROCS axis, defaulting to the single
// library-default point, deduplicated and sorted with 0 first.
func (cfg *GridConfig) threadAxis() []int {
	if len(cfg.GOMAXPROCS) == 0 {
		return []int{0}
	}
	axis := slices.Clone(cfg.GOMAXPROCS)
	slices.Sort(axis)
	return slices.Compact(axis)
}

// GridMeta carries run identity the config itself cannot know: the CLI
// resolves the git revision and may override the tag.
type GridMeta struct {
	Tag    string // overrides cfg.Tag when non-empty
	GitRev string // short git revision, best effort
	// Progress, when non-nil, receives one line per finished configuration
	// so multi-minute sweeps show life on stderr.
	Progress io.Writer
	// Images, when non-nil, supplies the images already built for an
	// earlier grid and keeps the ones this grid builds.
	Images *ImageCache
}

// RunGrid executes the config's full sweep and returns the self-describing
// report. Each class's images are built once, or drawn from meta.Images.
// Every configuration labels them cfg.Warmup untimed times, then
// cfg.Repeats timed times, timing each image on its own: a repeat's
// SampleNs entry is the sum of its image times, the row's NsPerOp is the
// median repeat (robust to a stray scheduler hiccup), and Images holds
// each image's median time and phase times. Parallel algorithms
// additionally pin runtime.GOMAXPROCS to the row's thread count for the
// duration of the measurement, so the thread axis constrains real CPU
// parallelism rather than just the algorithm's goroutine count.
func RunGrid(cfg *GridConfig, meta GridMeta) *BenchReport {
	tag := meta.Tag
	if tag == "" {
		tag = cfg.Tag
	}
	report := &BenchReport{
		Tag:        tag,
		Scale:      cfg.Scale,
		Repeats:    cfg.Repeats,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitRev:     meta.GitRev,
	}
	classes := AllClasses(cfg.Scale)
	axis := cfg.threadAxis()
	for _, class := range cfg.classes() {
		specs := classes[class]
		imgs := make([]*binimg.Image, len(specs))
		var pixels int64
		for i, spec := range specs {
			imgs[i] = meta.Images.build(spec)
			pixels += int64(len(imgs[i].Pix))
		}
		for _, alg := range cfg.algorithms() {
			ths := axis
			if !(paremsp.Options{Algorithm: alg.Algorithm}).Splits() {
				ths = []int{0}
			}
			for _, th := range ths {
				row := measureGridConfig(alg, specs, imgs, th, cfg.Repeats, cfg.Warmup)
				row.Class = class
				row.Pixels = pixels
				report.Results = append(report.Results, row)
				if meta.Progress != nil {
					fmt.Fprintf(meta.Progress, "grid: %-10s %-8s T=%d  %s/op\n",
						row.Algorithm, row.Class, row.Threads, time.Duration(row.NsPerOp))
				}
			}
		}
	}
	return report
}

// measureGridConfig times one algorithm × image-set × thread-count cell.
func measureGridConfig(alg GridAlg, specs []ImageSpec, imgs []*binimg.Image, threads, repeats, warmup int) BenchResult {
	if threads > 0 {
		prev := runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
	}
	opt := paremsp.Options{Algorithm: alg.Algorithm, Threads: threads}
	label := func(img *binimg.Image) paremsp.PhaseTimes {
		res, err := paremsp.Label(img, opt)
		if err != nil {
			panic(err) // every grid algorithm labels every binary image at 8-connectivity
		}
		return res.Phases
	}
	for range warmup {
		for _, img := range imgs {
			label(img)
		}
	}
	// Per-image results are stored by index into slices made before the
	// timed loop, so allocs/op and bytes/op count the labelings alone.
	samples := make([]int64, repeats)
	times := make([][]int64, len(imgs))
	phases := make([][]paremsp.PhaseTimes, len(imgs))
	for i := range imgs {
		times[i] = make([]int64, repeats)
		phases[i] = make([]paremsp.PhaseTimes, repeats)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := range samples {
		for i, img := range imgs {
			t0 := time.Now()
			phases[i][r] = label(img)
			times[i][r] = time.Since(t0).Nanoseconds()
			samples[r] += times[i][r]
		}
	}
	runtime.ReadMemStats(&m1)
	images := make([]ImageResult, len(imgs))
	for i := range imgs {
		median := func(phase func(paremsp.PhaseTimes) time.Duration) int64 {
			ns := make([]int64, repeats)
			for r, ph := range phases[i] {
				ns[r] = phase(ph).Nanoseconds()
			}
			return medianInt64(ns)
		}
		images[i] = ImageResult{
			Name:      specs[i].Name,
			NsPerOp:   medianInt64(times[i]),
			ScanNs:    median(func(ph paremsp.PhaseTimes) time.Duration { return ph.Scan }),
			MergeNs:   median(func(ph paremsp.PhaseTimes) time.Duration { return ph.Merge }),
			FlattenNs: median(func(ph paremsp.PhaseTimes) time.Duration { return ph.Flatten }),
			RelabelNs: median(func(ph paremsp.PhaseTimes) time.Duration { return ph.Relabel }),
		}
	}
	rep := int64(repeats)
	return BenchResult{
		Algorithm:   alg.Name,
		Threads:     threads,
		NsPerOp:     medianInt64(samples),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / rep,
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / rep,
		SampleNs:    samples,
		Images:      images,
	}
}

// medianInt64 returns the median of a non-empty sample set (lower middle
// for even counts), without mutating the input.
func medianInt64(samples []int64) int64 {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[(len(sorted)-1)/2]
}
