package obs

import (
	"strings"
	"testing"
)

func TestPromWriterFormat(t *testing.T) {
	var pw PromWriter
	pw.Family("rowsort_things_total", "counter", "Things counted.")
	pw.Sample(nil, 3)
	pw.Family("rowsort_ratio", "gauge", "A ratio with\nnewline and \\slash in help.")
	pw.Sample([]string{"run", "run-1", "label", `quote"back\slash` + "\nnl"}, 0.25)

	var b strings.Builder
	if err := pw.Flush(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP rowsort_things_total Things counted.\n# TYPE rowsort_things_total counter\nrowsort_things_total 3\n",
		`# HELP rowsort_ratio A ratio with\nnewline and \\slash in help.`,
		`rowsort_ratio{run="run-1",label="quote\"back\\slash\nnl"} 0.25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidatePrometheus([]byte(out)); err != nil {
		t.Fatalf("writer output does not validate: %v\n%s", err, out)
	}
}

func TestValidatePrometheusAcceptsWellFormed(t *testing.T) {
	good := `# HELP rowsort_a_total Counts a.
# TYPE rowsort_a_total counter
rowsort_a_total 1
rowsort_a_total{run="run-1",label="x y"} 2.5
# HELP rowsort_b_ratio A gauge.
# TYPE rowsort_b_ratio gauge
rowsort_b_ratio{v="esc\"aped\\and\nnl"} 0.5
`
	if err := ValidatePrometheus([]byte(good)); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
	if err := ValidatePrometheus(nil); err != nil {
		t.Fatalf("empty exposition rejected: %v", err)
	}
}

func TestValidatePrometheusRejectsViolations(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"sample before metadata", "rowsort_x 1\n", "before its # HELP/# TYPE"},
		{"help only", "# HELP rowsort_x h\nrowsort_x 1\n", "before its # HELP/# TYPE"},
		{"duplicate help", "# HELP rowsort_x h\n# HELP rowsort_x h\n", "duplicate # HELP"},
		{"bad type", "# HELP rowsort_x h\n# TYPE rowsort_x banana\n", "invalid # TYPE"},
		{"split family", "# HELP rowsort_x h\n# TYPE rowsort_x counter\nrowsort_x 1\n" +
			"# HELP rowsort_y h\n# TYPE rowsort_y counter\nrowsort_y 1\nrowsort_x 2\n",
			"outside its contiguous family block"},
		{"missing prefix", "# HELP rowsortx h\n# TYPE rowsortx counter\nrowsortx 1\n", "missing rowsort_ prefix"},
		{"bad value", "# HELP rowsort_x h\n# TYPE rowsort_x counter\nrowsort_x one\n", "invalid sample value"},
		{"unquoted label", "# HELP rowsort_x h\n# TYPE rowsort_x counter\nrowsort_x{a=b} 1\n", "not quoted"},
		{"unterminated label", "# HELP rowsort_x h\n# TYPE rowsort_x counter\nrowsort_x{a=\"b} 1\n", "unterminated label value"},
		{"duplicate label", "# HELP rowsort_x h\n# TYPE rowsort_x counter\nrowsort_x{a=\"1\",a=\"2\"} 1\n", "duplicate label"},
		{"bad escape", "# HELP rowsort_x h\n# TYPE rowsort_x counter\nrowsort_x{a=\"\\t\"} 1\n", "invalid escape"},
		{"trailing timestamp", "# HELP rowsort_x h\n# TYPE rowsort_x counter\nrowsort_x 1 1234\n", "malformed sample value"},
		{"interior blank line", "# HELP rowsort_x h\n# TYPE rowsort_x counter\n\nrowsort_x 1\n", "empty line"},
	}
	for _, tc := range cases {
		err := ValidatePrometheus([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestRecorderWritePrometheusValidates(t *testing.T) {
	rec := NewRecorderClock(tickClock()) // every span lasts 100 ns
	w := rec.Worker("w")
	w.Begin(PhaseIngest).End()
	w.Begin(PhaseMerge).End()
	var b strings.Builder
	if err := rec.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus([]byte(b.String())); err != nil {
		t.Fatalf("recorder exposition invalid: %v\n%s", err, b.String())
	}
	for _, want := range []string{
		`rowsort_phase_busy_seconds{phase="ingest"} 0.0000001`,
		`rowsort_phase_spans_total{phase="ingest"} 1`,
		"rowsort_trace_workers 1",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, b.String())
		}
	}
}
