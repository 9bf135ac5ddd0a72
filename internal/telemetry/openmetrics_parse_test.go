package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestParseSample(t *testing.T) {
	for _, c := range []struct {
		line string
		want Sample
	}{
		{"x 1", Sample{Name: "x", Value: 1}},
		{"x:y_z\t-2.5 1700000000", Sample{Name: "x:y_z", Value: -2.5, Timestamp: "1700000000"}},
		{`weird{msg="has space, and } brace"} 7`, Sample{Name: "weird", Labels: `{msg="has space, and } brace"}`, Value: 7}},
		{`x{a="}"} 1`, Sample{Name: "x", Labels: `{a="}"}`, Value: 1}},
		{`x{a="b # {c"} 1`, Sample{Name: "x", Labels: `{a="b # {c"}`, Value: 1}},
		{`m{a="x\"y"} 3 1700000000`, Sample{Name: "m", Labels: `{a="x\"y"}`, Value: 3, Timestamp: "1700000000"}},
		{`x{a="b"} 1 # {trace_id="}"} 2`, Sample{Name: "x", Labels: `{a="b"}`, Value: 1, Exemplar: `{trace_id="}"} 2`}},
		{`lat{quantile="0.99"} 900 # {trace_id="4bf9"} 900 1700000000.123`,
			Sample{Name: "lat", Labels: `{quantile="0.99"}`, Value: 900, Exemplar: `{trace_id="4bf9"} 900 1700000000.123`}},
		// An unbalanced quote ends the block at its first '}'; strict
		// label checks report the quote.
		{`x{l="dangling\"} 1`, Sample{Name: "x", Labels: `{l="dangling\"}`, Value: 1}},
		{"x +Inf", Sample{Name: "x", Value: math.Inf(1)}},
	} {
		got, err := ParseSample(c.line)
		if err != nil || got != c.want {
			t.Errorf("ParseSample(%q) = %+v, %v; want %+v", c.line, got, err, c.want)
		}
	}
	if s, err := ParseSample("x NaN"); err != nil || !math.IsNaN(s.Value) {
		t.Errorf("ParseSample(NaN) = %+v, %v", s, err)
	}
	for _, c := range []struct{ line, want string }{
		{"", "malformed sample line"},
		{"# TYPE x gauge", "malformed sample line"},
		{"name_only", "malformed sample line"},
		{" 5", "malformed sample line"},
		{"0bad 1", "malformed sample line"},
		{`unterminated{a="b 1`, "malformed sample line"},
		{`m{a="b"}3`, "malformed sample line"},
		{"x 1 ", "malformed sample line"},
		{"x 1 2 3", "malformed sample line"},
		{"x 1 # nope", "malformed sample line"},
		{"x notanumber", `unparseable sample value "notanumber"`},
	} {
		if _, err := ParseSample(c.line); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSample(%q) error = %v; want %q", c.line, err, c.want)
		}
	}
}

// renderSample writes a parsed sample back as an exposition line.
func renderSample(s Sample) string {
	line := s.Name + s.Labels + " " + strconv.FormatFloat(s.Value, 'g', -1, 64)
	if s.Timestamp != "" {
		line += " " + s.Timestamp
	}
	if s.Exemplar != "" {
		line += " # " + s.Exemplar
	}
	return line
}

// FuzzParseOpenMetrics feeds arbitrary expositions to the linter in
// both modes and to the tokenizer line by line: neither may panic,
// and every sample line the tokenizer accepts re-renders from its
// parsed fields to a line that parses to the same sample (NaN
// compared by its bits). Seeds live in testdata/fuzz.
func FuzzParseOpenMetrics(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		LintOpenMetrics(strings.NewReader(text), false)
		LintOpenMetrics(strings.NewReader(text), true)
		for _, line := range strings.Split(text, "\n") {
			s, err := ParseSample(line)
			if err != nil {
				continue
			}
			out := renderSample(s)
			again, err := ParseSample(out)
			if err != nil {
				t.Fatalf("%q parsed to %+v, whose rendering %q does not parse: %v", line, s, out, err)
			}
			vb, ab := math.Float64bits(s.Value), math.Float64bits(again.Value)
			s.Value, again.Value = 0, 0
			if s != again || vb != ab {
				t.Fatalf("%q parsed to %+v (value bits %x); its rendering %q parsed to %+v (value bits %x)",
					line, s, vb, out, again, ab)
			}
		}
	})
}
