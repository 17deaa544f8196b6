// Package harness provides the measurement machinery the paper-reproduction
// benchmarks are built on: repeated timing with warmup, min/average/max
// aggregation (the statistics Tables II and IV report), speedup series
// (Figures 4 and 5), and aligned-table / CSV rendering.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Sample aggregates repeated duration measurements.
type Sample struct {
	Runs []time.Duration
}

// Measure times f repeated times (after warmup un-timed runs) and collects
// the samples.
func Measure(repeats, warmup int, f func()) Sample {
	for i := 0; i < warmup; i++ {
		f()
	}
	s := Sample{Runs: make([]time.Duration, 0, repeats)}
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		s.Runs = append(s.Runs, time.Since(start))
	}
	return s
}

// Min returns the fastest run (0 when empty).
func (s Sample) Min() time.Duration {
	if len(s.Runs) == 0 {
		return 0
	}
	m := s.Runs[0]
	for _, d := range s.Runs[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// Max returns the slowest run (0 when empty).
func (s Sample) Max() time.Duration {
	if len(s.Runs) == 0 {
		return 0
	}
	m := s.Runs[0]
	for _, d := range s.Runs[1:] {
		if d > m {
			m = d
		}
	}
	return m
}

// Mean returns the average run (0 when empty).
func (s Sample) Mean() time.Duration {
	if len(s.Runs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.Runs {
		sum += d
	}
	return sum / time.Duration(len(s.Runs))
}

// Median returns the median run (0 when empty).
func (s Sample) Median() time.Duration {
	if len(s.Runs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.Runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// MinAvgMax groups the three statistics the paper's tables report.
type MinAvgMax struct {
	Min, Avg, Max time.Duration
}

// Aggregate reduces a set of per-image samples to the dataset-class
// statistics of Tables II/IV: Min is the minimum over images of the per-image
// mean, Avg the average of means, Max the maximum of means.
func Aggregate(samples []Sample) MinAvgMax {
	if len(samples) == 0 {
		return MinAvgMax{}
	}
	out := MinAvgMax{Min: time.Duration(math.MaxInt64)}
	var sum time.Duration
	for _, s := range samples {
		m := s.Mean()
		if m < out.Min {
			out.Min = m
		}
		if m > out.Max {
			out.Max = m
		}
		sum += m
	}
	out.Avg = sum / time.Duration(len(samples))
	return out
}

// Msec renders a duration in the paper's unit (milliseconds, two decimals).
func Msec(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// Speedup returns base/parallel as a float (0 when parallel is 0).
func Speedup(base, parallel time.Duration) float64 {
	if parallel <= 0 {
		return 0
	}
	return base.Seconds() / parallel.Seconds()
}

// Table renders aligned console tables for the experiment binaries.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// EnvBanner describes the measurement environment, mirroring the paper's
// "Experiments" preamble (their Cray XE6 node; our host).
func EnvBanner() string {
	return fmt.Sprintf("go %s, GOMAXPROCS=%d, NumCPU=%d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}
