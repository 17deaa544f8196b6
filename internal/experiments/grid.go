package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	paremsp "repro"
	"repro/internal/baseline"
	"repro/internal/binimg"
)

// GridAlg is one algorithm the grid runner can sweep. Sequential algorithms
// ignore the thread axis (they are measured once per class, with Threads
// recorded as 0); parallel ones are measured at every configured GOMAXPROCS
// value, plus once at the library default when the config lists 0.
type GridAlg struct {
	Name     string
	Parallel bool
	Run      func(img *binimg.Image, threads int) (*binimg.LabelMap, int)
}

// GridAlgs is the closed algorithm registry of the grid runner, in report
// row order: the paper's four sequential algorithms, BREMSP, then the two
// parallel algorithms.
var GridAlgs = []GridAlg{
	{"CCLLRPC", false, func(im *binimg.Image, _ int) (*binimg.LabelMap, int) { return baseline.CCLLRPC(im) }},
	{"CCLRemSP", false, label(paremsp.AlgCCLREMSP)},
	{"ARun", false, func(im *binimg.Image, _ int) (*binimg.LabelMap, int) { return baseline.ARUN(im) }},
	{"ARemSP", false, label(paremsp.AlgAREMSP)},
	{"BREMSP", false, label(paremsp.AlgBREMSP)},
	{"PAREMSP", true, label(paremsp.AlgPAREMSP)},
	{"PBREMSP", true, label(paremsp.AlgPBREMSP)},
}

// gridAlgByName resolves a registry entry; ok is false for unknown names.
func gridAlgByName(name string) (GridAlg, bool) {
	for _, a := range GridAlgs {
		if a.Name == name {
			return a, true
		}
	}
	return GridAlg{}, false
}

// GridConfig is the declarative experiment grid cmd/paperbench -grid runs:
// the checked-in experiments.json at the repository root is one of these.
// The sweep is algorithm × class × gomaxprocs × repeats; sequential
// algorithms collapse the thread axis.
type GridConfig struct {
	// Tag names the run; the emitted report carries it (BENCH_<tag>.json by
	// convention).
	Tag string `json:"tag"`
	// Scale is the image-size scale factor in (0, 1] (see Config.Scale).
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
		if _, ok := gridAlgByName(name); !ok {
			return fmt.Errorf("experiments: unknown grid algorithm %q", name)
		}
	}
	for _, class := range cfg.Classes {
		found := false
		for _, known := range ClassOrder {
			if class == known {
				found = true
				break
			}
		}
		if !found {
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
	if len(cfg.Algorithms) == 0 {
		return GridAlgs
	}
	selected := make(map[string]bool, len(cfg.Algorithms))
	for _, name := range cfg.Algorithms {
		selected[name] = true
	}
	algs := make([]GridAlg, 0, len(cfg.Algorithms))
	for _, a := range GridAlgs {
		if selected[a.Name] {
			algs = append(algs, a)
		}
	}
	return algs
}

// classes returns the selected class names in ClassOrder.
func (cfg *GridConfig) classes() []string {
	if len(cfg.Classes) == 0 {
		return ClassOrder
	}
	selected := make(map[string]bool, len(cfg.Classes))
	for _, class := range cfg.Classes {
		selected[class] = true
	}
	out := make([]string, 0, len(cfg.Classes))
	for _, class := range ClassOrder {
		if selected[class] {
			out = append(out, class)
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
	seen := make(map[int]bool, len(cfg.GOMAXPROCS))
	axis := make([]int, 0, len(cfg.GOMAXPROCS))
	for _, th := range cfg.GOMAXPROCS {
		if !seen[th] {
			seen[th] = true
			axis = append(axis, th)
		}
	}
	sort.Ints(axis)
	return axis
}

// GridMeta carries run identity the config itself cannot know: the CLI
// resolves the git revision and may override the tag.
type GridMeta struct {
	Tag    string // overrides cfg.Tag when non-empty
	GitRev string // short git revision, best effort
	// Progress, when non-nil, receives one line per finished configuration
	// so multi-minute sweeps show life on stderr.
	Progress io.Writer
}

// RunGrid executes the config's full sweep and returns the self-describing
// report. Every configuration is measured cfg.Repeats times after
// cfg.Warmup untimed runs; the row's NsPerOp is the median repeat (robust
// to a stray scheduler hiccup) and the raw repeats ride along in SampleNs
// for the analyzer. Parallel algorithms additionally pin
// runtime.GOMAXPROCS to the row's thread count for the duration of the
// measurement, so the thread axis constrains real CPU parallelism rather
// than just the algorithm's goroutine count.
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
		imgs := make([]*binimg.Image, 0, len(classes[class]))
		var pixels int64
		for _, spec := range classes[class] {
			img := spec.Build()
			pixels += int64(len(img.Pix))
			imgs = append(imgs, img)
		}
		for _, alg := range cfg.algorithms() {
			ths := axis
			if !alg.Parallel {
				ths = []int{0}
			}
			for _, th := range ths {
				row := measureGridConfig(alg, imgs, th, cfg.Repeats, cfg.Warmup)
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
func measureGridConfig(alg GridAlg, imgs []*binimg.Image, threads, repeats, warmup int) BenchResult {
	if threads > 0 {
		prev := runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
	}
	run := func() {
		for _, img := range imgs {
			alg.Run(img, threads)
		}
	}
	for i := 0; i < warmup; i++ {
		run()
	}
	samples := make([]int64, repeats)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range samples {
		t0 := time.Now()
		run()
		samples[i] = time.Since(t0).Nanoseconds()
	}
	runtime.ReadMemStats(&m1)
	rep := int64(repeats)
	return BenchResult{
		Algorithm:   alg.Name,
		Threads:     threads,
		NsPerOp:     medianInt64(samples),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / rep,
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / rep,
		SampleNs:    samples,
	}
}

// medianInt64 returns the median of a non-empty sample set (lower middle
// for even counts), without mutating the input.
func medianInt64(samples []int64) int64 {
	sorted := make([]int64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}
