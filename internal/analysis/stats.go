// Package analysis turns a completed simulation run into the paper's
// evaluation artifacts: Tables 1–5, Figures 1–2, and the §4.1–§4.4
// headline statistics, each rendered in the same shape the paper reports.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// CDF is an empirical cumulative distribution over durations.
type CDF struct {
	sorted []time.Duration
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []time.Duration) *CDF {
	s := slices.Clone(samples)
	slices.Sort(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X ≤ x).
func (c *CDF) At(x time.Duration) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1).
func (c *CDF) Quantile(q float64) time.Duration {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(q * float64(len(c.sorted)))
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Figure1Buckets are the x-axis ticks of the paper's Figure 1.
var Figure1Buckets = []time.Duration{
	30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
	15 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour,
	3 * time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour,
	48 * time.Hour,
}

// Figure2Buckets are the x-axis ticks of Figure 2 (1h..24h).
var Figure2Buckets = func() []time.Duration {
	var b []time.Duration
	for h := 1; h <= 24; h++ {
		b = append(b, time.Duration(h)*time.Hour)
	}
	return b
}()

// FormatDuration renders a bucket boundary like the paper's axis labels.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dm", int(d.Minutes()))
	case d < 24*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	default:
		return fmt.Sprintf("%dd", int(d.Hours()/24))
	}
}

// Series is a named CDF evaluated over fixed buckets.
type Series struct {
	Name   string
	Values []float64 // CDF value at each bucket
}

// cdfTable renders a figure's series as an aligned text table — the
// textual stand-in for the paper's figures.
func cdfTable(title string, f Figure) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-12s", "bucket")
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%10.10s", s.Name)
	}
	sb.WriteByte('\n')
	for i, b := range f.Buckets {
		fmt.Fprintf(&sb, "%-12s", "≤"+FormatDuration(b))
		for _, s := range f.Series {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			fmt.Fprintf(&sb, "%10.3f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render produces an aligned textual table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Pct formats a ratio as a percentage string.
func Pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// Count formats an integer with thousands separators, as the paper's
// tables do.
func Count(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + " " + s[i:]
	}
	return s
}
