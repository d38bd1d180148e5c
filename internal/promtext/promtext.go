// Package promtext parses and lints the Prometheus text exposition format
// (version 0.0.4) — just enough of it to validate what the job service's
// /metrics endpoint emits. The server tests parse two live scrapes through
// it and assert counter monotonicity; cmd/promcheck wraps it for the CI
// smoke job; the bench client's dashboard reads queue depth through it.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed time series sample.
type Sample struct {
	// Name is the metric name (without labels).
	Name string
	// Labels are the label pairs in appearance order.
	Labels []Label
	// Value is the parsed sample value.
	Value float64
	// Line is the 1-based source line, for error messages.
	Line int
}

// Label is one name="value" pair with the escape sequences decoded.
type Label struct {
	Name, Value string
}

// Key identifies the series: name plus sorted label pairs, re-escaped. Two
// scrapes' samples with equal keys are the same series.
func (s Sample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	pairs := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		pairs[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	sort.Strings(pairs)
	return s.Name + "{" + strings.Join(pairs, ",") + "}"
}

// Family is one metric family: its # HELP/# TYPE metadata and samples.
type Family struct {
	Name    string
	Help    string
	Type    string // counter, gauge, summary, histogram, untyped
	Samples []Sample
}

// Metrics is a parsed exposition.
type Metrics struct {
	// Families in appearance order.
	Families []Family
	byName   map[string]*Family
}

// Family returns the named family (nil when absent). Summary/histogram
// child series (name_sum, name_count, name_bucket) resolve to their parent.
func (m *Metrics) Family(name string) *Family {
	if f := m.byName[name]; f != nil {
		return f
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f := m.byName[base]; f != nil && (f.Type == "summary" || f.Type == "histogram") {
				return f
			}
		}
	}
	return nil
}

// Samples returns every sample across all families, in appearance order.
func (m *Metrics) Samples() []Sample {
	var out []Sample
	for _, f := range m.Families {
		out = append(out, f.Samples...)
	}
	return out
}

// Sample returns the first sample whose series key matches name and labels
// exactly, or nil.
func (m *Metrics) Sample(name string, labels ...Label) *Sample {
	want := Sample{Name: name, Labels: labels}.Key()
	for _, f := range m.Families {
		for i := range f.Samples {
			if f.Samples[i].Key() == want {
				return &f.Samples[i]
			}
		}
	}
	return nil
}

// Parse reads a text exposition. It is strict: malformed lines, samples
// without a preceding # TYPE and # HELP, duplicate metadata, bad escapes,
// and unparsable values are all errors — Parse doubles as the lint the
// /metrics tests and cmd/promcheck run.
func Parse(r io.Reader) (*Metrics, error) {
	m := &Metrics{byName: map[string]*Family{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.TrimSpace(text) == "":
			continue
		case strings.HasPrefix(text, "# HELP "):
			rest := strings.TrimPrefix(text, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed HELP", line)
			}
			f := m.family(name)
			if f.Help != "" {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", line, name)
			}
			f.Help = help
		case strings.HasPrefix(text, "# TYPE "):
			rest := strings.TrimPrefix(text, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed TYPE", line)
			}
			switch kind {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", line, kind)
			}
			f := m.family(name)
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", line, name)
			}
			if len(f.Samples) > 0 {
				return nil, fmt.Errorf("line %d: TYPE for %s after its samples", line, name)
			}
			f.Type = kind
		case strings.HasPrefix(text, "#"):
			continue // other comments are legal and ignored
		default:
			s, err := parseSample(text, line)
			if err != nil {
				return nil, err
			}
			f := m.Family(s.Name)
			if f == nil {
				return nil, fmt.Errorf("line %d: sample %s has no # TYPE", line, s.Name)
			}
			if f.Help == "" {
				return nil, fmt.Errorf("line %d: sample %s has no # HELP", line, s.Name)
			}
			f.Samples = append(f.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range m.Families {
		if f.Type == "" {
			return nil, fmt.Errorf("metric %s has HELP but no TYPE", f.Name)
		}
	}
	return m, nil
}

// family returns (creating if needed) the family record for name.
func (m *Metrics) family(name string) *Family {
	if f := m.byName[name]; f != nil {
		return f
	}
	m.Families = append(m.Families, Family{Name: name})
	f := &m.Families[len(m.Families)-1]
	m.byName[name] = f
	return f
}

// validName reports whether s is a legal metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseSample parses `name[{labels}] value [timestamp]`.
func parseSample(text string, line int) (Sample, error) {
	s := Sample{Line: line}
	rest := text
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("line %d: sample %q has no value", line, text)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validName(s.Name) {
		return s, fmt.Errorf("line %d: invalid metric name %q", line, s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		var err error
		s.Labels, rest, err = parseLabels(rest[1:], line)
		if err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return s, fmt.Errorf("line %d: want `value [timestamp]` after %s, got %q", line, s.Name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("line %d: value %q: %v", line, fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `name="value",...}` (the caller consumed the opening
// brace), decoding the \\, \", and \n escapes. It returns the remainder
// after the closing brace.
func parseLabels(rest string, line int) ([]Label, string, error) {
	var labels []Label
	for {
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("line %d: label without '='", line)
		}
		name := rest[:eq]
		if !validName(name) || strings.ContainsRune(name, ':') {
			return nil, "", fmt.Errorf("line %d: invalid label name %q", line, name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("line %d: label %s value is not quoted", line, name)
		}
		rest = rest[1:]
		var val strings.Builder
		for {
			if rest == "" {
				return nil, "", fmt.Errorf("line %d: unterminated label value for %s", line, name)
			}
			c := rest[0]
			rest = rest[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if rest == "" {
					return nil, "", fmt.Errorf("line %d: dangling escape in label %s", line, name)
				}
				e := rest[0]
				rest = rest[1:]
				switch e {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("line %d: invalid escape \\%c in label %s", line, e, name)
				}
				continue
			}
			if c == '\n' {
				return nil, "", fmt.Errorf("line %d: raw newline in label %s", line, name)
			}
			val.WriteByte(c)
		}
		labels = append(labels, Label{Name: name, Value: val.String()})
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		return nil, "", fmt.Errorf("line %d: expected ',' or '}' after label %s", line, name)
	}
}
