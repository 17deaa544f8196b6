// Package harness provides what the paper-reproduction output and the
// conformance suites share: aligned console tables and ASCII charts for
// the tables and figures internal/experiments renders from its grid
// reports, the environment banner they print, and the generated corpus
// every algorithm is checked against.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Msec renders a duration in the paper's unit (milliseconds, two decimals).
func Msec(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
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
