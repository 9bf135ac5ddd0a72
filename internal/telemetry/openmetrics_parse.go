package telemetry

// The reading half of the OpenMetrics text exposition: ParseSample
// tokenizes one sample line and LintOpenMetrics checks a whole
// exposition. cmd/omlint, obs.Scraper and the exposition tests all
// call these, so the checker and the reader agree on what a sample is.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one tokenized sample line:
//
//	name{labels} value [timestamp] [# {exemplar labels} value [timestamp]]
type Sample struct {
	Name string
	// Labels is the raw label block with its braces, "" when absent.
	// Name+Labels identifies the series.
	Labels string
	Value  float64
	// Timestamp is the raw timestamp token, "" when absent.
	Timestamp string
	// Exemplar is the raw clause after the ` # ` separator, from its
	// labelset's '{'; "" when absent.
	Exemplar string
}

// ParseSample tokenizes one sample line. Quoted label values may hold
// spaces, '}' and '#', and the exemplar separator is searched only
// past the label block. Label contents are checked only by the strict
// lint. The error names the line when it is not a sample line, and
// the value when only the value does not parse.
func ParseSample(line string) (Sample, error) {
	n := nameLen(line)
	s, rest := Sample{Name: line[:n]}, line[n:]
	if n > 0 && strings.HasPrefix(rest, "{") {
		end := labelBlockEnd(rest) + 1 // 0 when unclosed, leaving a malformed rest
		s.Labels, rest = rest[:end], rest[end:]
	}
	if i := strings.Index(rest, " # {"); i >= 0 {
		rest, s.Exemplar = rest[:i], rest[i+3:]
	}
	// The rest is blanks, the value, and an optional timestamp.
	f := strings.Fields(rest)
	if n == 0 || len(f) == 0 || len(f) > 2 || !isBlank(rest[0]) || isBlank(rest[len(rest)-1]) {
		return Sample{}, fmt.Errorf("malformed sample line %q", line)
	}
	if len(f) == 2 {
		s.Timestamp = f[1]
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("unparseable sample value %q", f[0])
	}
	s.Value = v
	return s, nil
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' }

// nameLen returns the length of the metric name [a-zA-Z_:][a-zA-Z0-9_:]*
// that s starts with, 0 when there is none.
func nameLen(s string) int {
	i := 0
	for ; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || i > 0 && c >= '0' && c <= '9') {
			break
		}
	}
	return i
}

// labelBlockEnd returns the index of the '}' closing the label block
// s starts with: the first '}' outside a quoted value, honoring
// backslash escapes. When a quote never closes it is the first '}',
// so the strict lint reports the quote rather than a malformed line.
// -1 when s holds no '}'.
func labelBlockEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case inQuote && c == '\\':
			i++
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return i
		}
	}
	return strings.IndexByte(s, '}')
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true,
	"untyped": true, "info": true, "stateset": true, "gaugehistogram": true, "unknown": true,
}

// LintOpenMetrics checks the exposition read from r and returns one
// "<line>: <message>" diagnostic per problem. Every line must be a
// TYPE, HELP or UNIT comment, the # EOF terminator, or a sample line
// ParseSample accepts; TYPE declarations are unique and name a known
// type; exactly one # EOF ends the exposition.
//
// strict also requires TYPE and HELP declarations for every sampled
// family (standard suffixes such as _total, _sum, _count and _bucket
// resolve to their family), legal label names with double-quoted
// values using only the escapes \\, \" and \n, and exemplar clauses
// with such a labelset within the spec's 128-character cap, a
// parseable value, and a parseable timestamp when present.
func LintOpenMetrics(r io.Reader, strict bool) []string {
	var diags []string
	n := 0
	fail := func(format string, args ...any) {
		diags = append(diags, strconv.Itoa(n)+": "+fmt.Sprintf(format, args...))
	}
	types := make(map[string]bool)
	helps := make(map[string]bool)
	reported := make(map[string]bool) // names already flagged for missing metadata
	sawEOF := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		n++
		line := sc.Text()
		if sawEOF {
			fail("content after # EOF terminator")
			sawEOF = false // report once
		}
		fields := strings.Fields(line)
		switch {
		case line == "# EOF":
			sawEOF = true
		case strings.HasPrefix(line, "# TYPE "):
			if len(fields) != 4 {
				fail("malformed TYPE comment %q", line)
				continue
			}
			if name := fields[2]; nameLen(name) != len(name) {
				fail("illegal metric family name %q", name)
			}
			if !validTypes[fields[3]] {
				fail("unknown metric type %q", fields[3])
			}
			if types[fields[2]] {
				fail("duplicate TYPE for family %q", fields[2])
			}
			types[fields[2]] = true
		case strings.HasPrefix(line, "# HELP "):
			if len(fields) < 3 {
				fail("malformed HELP comment %q", line)
				continue
			}
			helps[fields[2]] = true
		case strings.HasPrefix(line, "# UNIT "):
			// Free-form; accepted.
		case strings.HasPrefix(line, "#"):
			fail("unknown comment %q (want TYPE/HELP/UNIT/EOF)", line)
		case len(fields) == 0:
			fail("blank line not allowed in exposition")
		default:
			s, err := ParseSample(line)
			if err != nil {
				fail("%v", err)
				continue
			}
			if !strict {
				continue
			}
			if s.Exemplar != "" {
				if err := lintExemplar(s.Exemplar); err != nil {
					fail("sample %q exemplar: %v", s.Name, err)
				}
			}
			if s.Labels != "" {
				if err := lintLabels(s.Labels); err != nil {
					fail("sample %q: %v", s.Name, err)
				}
			}
			family := familyOf(s.Name, types)
			switch {
			case family == "" && !reported[s.Name]:
				fail("sample %q has no TYPE declaration", s.Name)
				reported[s.Name] = true
			case family != "" && !helps[family] && !reported[family]:
				fail("family %q has no HELP declaration", family)
				reported[family] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		fail("read: %v", err)
	}
	if !sawEOF && len(diags) == 0 {
		fail("missing # EOF terminator")
	}
	return diags
}

// familyOf resolves a sample name to its declared family: the name
// itself, or the name with one of the suffixes the spec derives from a
// family stripped. "" when neither is declared.
func familyOf(name string, types map[string]bool) string {
	if types[name] {
		return name
	}
	for _, suf := range []string{"_total", "_created", "_bucket", "_count", "_sum", "_gcount", "_gsum", "_info"} {
		if base := strings.TrimSuffix(name, suf); base != name && types[base] {
			return base
		}
	}
	return ""
}

// lintLabels validates a brace-delimited label set: legal label names
// and double-quoted values using only the escapes \\, \" and \n.
func lintLabels(block string) error {
	s := block[1 : len(block)-1]
	for s != "" {
		name, v, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("label %q missing '='", s)
		}
		if n := nameLen(name); n == 0 || n != len(name) || strings.Contains(name, ":") {
			return fmt.Errorf("illegal label name %q", name)
		}
		if v == "" || v[0] != '"' {
			return fmt.Errorf("label %q value is not double-quoted", name)
		}
		i := 1
		for ; i < len(v) && v[i] != '"'; i++ {
			if v[i] != '\\' {
				continue
			}
			if i+1 == len(v) {
				return fmt.Errorf("label %q value ends in a dangling escape", name)
			}
			if c := v[i+1]; c != '\\' && c != '"' && c != 'n' {
				return fmt.Errorf("label %q value has illegal escape \\%c", name, c)
			}
			i++
		}
		if i >= len(v) {
			return fmt.Errorf("label %q value has no closing quote", name)
		}
		if s = v[i+1:]; s == "" {
			return nil
		}
		if s[0] != ',' {
			return fmt.Errorf("unexpected %q after label %q", s, name)
		}
		if s = s[1:]; s == "" {
			return fmt.Errorf("trailing ',' in label set")
		}
	}
	return nil
}

// lintExemplar validates an exemplar clause `{labels} value
// [timestamp]`; the 128-character cap counts the labelset's interior.
func lintExemplar(ex string) error {
	end := labelBlockEnd(ex)
	if end < 0 {
		return fmt.Errorf("labelset %q not closed", ex)
	}
	if err := lintLabels(ex[:end+1]); err != nil {
		return err
	}
	if end-1 > 128 {
		return fmt.Errorf("labelset is %d chars, spec cap 128", end-1)
	}
	f := strings.Fields(ex[end+1:])
	if len(f) != 1 && len(f) != 2 {
		return fmt.Errorf("%q: want value [timestamp] after labelset", ex)
	}
	if _, err := strconv.ParseFloat(f[0], 64); err != nil {
		return fmt.Errorf("unparseable value %q", f[0])
	}
	if len(f) == 2 {
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			return fmt.Errorf("unparseable timestamp %q", f[1])
		}
	}
	return nil
}
