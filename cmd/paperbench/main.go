// Command paperbench regenerates the tables and figures of the paper's
// evaluation section (Tables II-IV, Figures 3-5) on synthetic surrogates of
// the paper's datasets, and is the engine behind the repository's
// performance trajectory: a declarative experiment grid, a scaling-curve
// analyzer, and a gating regression diff.
//
// Usage:
//
//	paperbench [-exp all|table2|table3|table4|fig3|fig4|fig5]
//	           [-scale 0.02] [-repeats 3] [-warmup 1]
//	paperbench -json report.json [-scale 0.05]
//	paperbench -grid experiments.json [-tag pr7] [-json BENCH_pr7.json]
//	paperbench [-grid ...] -diff BENCH_seed.json [-regress-policy perf_policy.json]
//	paperbench -analyze BENCH_pr7.json [-baseline BENCH_seed.json] [-out dir]
//
// -exp prints the tables and figures. Each timed one (Tables II and IV,
// Figures 4 and 5) runs its own grid through the same runner as -grid, so
// GOMAXPROCS is pinned to each thread count as in every grid row. A grid
// cell times every image separately in every repeat: Tables II and IV
// report the min/average/max over a class's images of each image's median
// time, Figure 4 the ratio of the ARemSP and PAREMSP rows' median repeats,
// and Figure 5 each NLCD image's median scan (local) and median scan plus
// median merge (local + merge) time against its one-thread value.
// Per-image medians replace the per-image means the tables used before and
// the best of the repeats Figure 5 used.
//
// -json skips the tables and instead writes a machine-readable benchmark
// report (per-algorithm ns/op as the median repeat, allocs/op, bytes/op per
// dataset class, raw per-repeat samples, per-image medians with the
// per-phase scan_ns/merge_ns/flatten_ns/relabel_ns of the REMSP algorithms,
// and environment metadata: go version, GOMAXPROCS, CPU count, git
// revision). Without -grid it runs the grid's library-default thread
// point: every algorithm over every dataset class, the configurations of
// BENCH_seed.json, which is such a report at -scale 0.05. BENCH_pr7.json is
// the current grid baseline.
//
// -grid runs the experiment grid declared in a config file (see
// experiments.json: algorithms x dataset classes x GOMAXPROCS values x
// repeats). Sequential algorithms collapse the thread axis; parallel
// algorithms get one row per pinned GOMAXPROCS value plus an unpinned
// (library-default) row comparable with BENCH_seed.json. Explicit -scale,
// -repeats and -warmup flags override the config, so CI can shrink the
// checked-in grid to a smoke run without a second config file.
//
// -diff runs the benchmark (-grid or the default point) and compares ns/op
// per configuration against a baseline report, exiting 3 on regressions
// beyond tolerance. -regress-policy points at a JSON policy with the
// default tolerance, per-benchmark overrides and an allowlist for accepted
// regressions; without one every configuration is held to +25%.
// Configurations present on only one side are reported as added/removed,
// never as errors.
//
// -analyze digests a report offline: per-configuration medians with 95%
// confidence intervals, speedup-vs-threads curves (against both the
// 1-thread self point and the best sequential baseline), and parallel
// efficiency. -baseline adds a trajectory section diffing two reports;
// -out writes analysis.md, configs.csv and scaling.csv instead of
// printing markdown to stdout.
//
// scale shrinks the pixel counts linearly: the paper's 465.2 MB NLCD image
// becomes 465.2*scale MB. At -scale 1 the sweep needs several GB of memory
// and many minutes, matching the paper's Cray XE6 runs in size.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.PaperBench(os.Args[1:], os.Stdout, os.Stderr))
}
