// Package stats aggregates simulation measurements into the quantities the
// paper reports: misses and first accesses per kilo-instruction (MPKI),
// normalized execution time, and geometric means.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MPKI returns events per thousand instructions.
func MPKI(events, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(events) * 1000 / float64(instructions)
}

// Normalized returns the normalized execution time (defense / baseline), the
// quantity plotted in Figures 7, 9a, and 10.
func Normalized(defenseCycles, baselineCycles uint64) float64 {
	if baselineCycles == 0 {
		return 0
	}
	return float64(defenseCycles) / float64(baselineCycles)
}

// OverheadPct converts a normalized time to a percentage overhead.
func OverheadPct(normalized float64) float64 { return (normalized - 1) * 100 }

// BinaryChannelBits converts an attack's bit-recovery accuracy over n
// transmitted bits into the capacity of the equivalent binary symmetric
// channel, n·(1 − H(p)) where p is the per-bit error rate: n when every bit
// is recovered, 0 at coin-flip accuracy. Accuracy below 0.5 is folded (a
// consistently wrong channel still carries information).
func BinaryChannelBits(n int, accuracy float64) float64 {
	p := accuracy
	if p < 0.5 {
		p = 1 - p
	}
	if p >= 1 {
		return float64(n)
	}
	h := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	return float64(n) * (1 - h)
}

// GeoMean returns the geometric mean of xs (zero for empty input; any
// non-positive element is skipped, matching how overhead ratios behave).
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table is a simple fixed-column text table used by the harness and the
// reproduce tool to print paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// Add appends a row; values are formatted with %v, floats with 4 digits.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// csvQuote escapes one CSV field per RFC 4180: fields containing commas,
// double quotes, or line breaks are wrapped in double quotes with embedded
// quotes doubled; anything else passes through unchanged.
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV renders the table as RFC-4180 comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvQuote(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation; it copies and sorts the input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
