// Package report renders experiment results as aligned text tables, CSV,
// and unicode sparklines, the presentation layer for the per-figure/table
// runners and CLIs.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row; cells beyond the column count are dropped, missing
// cells are blank.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddF appends a row of formatted values: strings pass through, float64
// render with %.3g, ints with %d.
func (t *Table) AddF(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, FmtF(v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		case bool:
			row = append(row, fmt.Sprintf("%t", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.Add(row...)
}

// FmtF formats a float compactly for tables.
func FmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 0.01 && math.Abs(v) < 10000:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// String renders the aligned table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes cells that need
// them).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Sparkline renders values as a one-line unicode mini chart, resampled to
// the given width.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		j := i * len(values) / width
		v := values[j]
		var lvl int
		if hi > lo {
			lvl = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		out[i] = levels[lvl]
	}
	return string(out)
}
