package experiments

// BenchResult is one machine-readable benchmark row: one algorithm over one
// dataset class at one thread count.
type BenchResult struct {
	Algorithm string `json:"algorithm"`
	Class     string `json:"class"`
	// Threads is the pinned GOMAXPROCS / algorithm thread count of a grid
	// row; 0 (omitted) means the library default, the only point
	// BENCH_seed.json and a -json run without -grid measure.
	Threads     int   `json:"threads,omitempty"`
	Pixels      int64 `json:"pixels"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// SampleNs holds the per-repeat wall times behind NsPerOp, the median
	// repeat; each is the sum of that repeat's per-image times. The
	// analyzer derives medians and confidence intervals from it.
	// BENCH_seed.json predates it and has none.
	SampleNs []int64 `json:"sample_ns,omitempty"`
	// Images holds each image's medians over the repeats, in the class's
	// image order; the paper's tables and figures are rendered from them.
	// Reports recorded before it have none.
	Images []ImageResult `json:"images,omitempty"`
}

// ImageResult is one image's median time over a grid row's repeats and,
// for the kernels that time their phases (every REMSP algorithm), the
// median of each phase under the names the service's phases JSON uses.
type ImageResult struct {
	Name      string `json:"name"`
	NsPerOp   int64  `json:"ns_per_op"`
	ScanNs    int64  `json:"scan_ns,omitempty"`
	MergeNs   int64  `json:"merge_ns,omitempty"`
	FlattenNs int64  `json:"flatten_ns,omitempty"`
	RelabelNs int64  `json:"relabel_ns,omitempty"`
}

// BenchReport is the envelope cmd/paperbench -json writes. BENCH_seed.json
// at the repository root is one of these, produced at -scale 0.05; future
// changes diff their own run against it to track the perf trajectory
// (ns/op values are machine-relative, allocs/op are not). The environment
// fields make a checked-in BENCH_<tag>.json record where its numbers came
// from; BENCH_seed.json predates the optional ones.
type BenchReport struct {
	Tag        string        `json:"tag,omitempty"`
	Scale      float64       `json:"scale"`
	Repeats    int           `json:"repeats"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu,omitempty"`
	GOOS       string        `json:"goos,omitempty"`
	GOARCH     string        `json:"goarch,omitempty"`
	GitRev     string        `json:"git_rev,omitempty"`
	Results    []BenchResult `json:"results"`
}

// row returns the report's row for key, or nil when it has none.
func (rep *BenchReport) row(key ConfigKey) *BenchResult {
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Algorithm == key.Algorithm && r.Class == key.Class && r.Threads == key.Threads {
			return r
		}
	}
	return nil
}
