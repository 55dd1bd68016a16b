package obs

import (
	"fmt"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// PromWriter builds Prometheus text exposition (version 0.0.4): every metric
// family gets its # HELP and # TYPE lines exactly once, immediately followed
// by its samples. All rowsort expositions go through it so metadata can't be
// forgotten and label escaping is uniform.
type PromWriter struct {
	b   strings.Builder
	cur string // family currently open, for the contiguity invariant
}

// Family opens a new metric family, emitting its metadata lines. typ is
// "counter" or "gauge".
func (pw *PromWriter) Family(name, typ, help string) {
	pw.cur = name
	fmt.Fprintf(&pw.b, "# HELP %s %s\n", name, helpEscaper.Replace(help))
	fmt.Fprintf(&pw.b, "# TYPE %s %s\n", name, typ)
}

// Sample emits one sample of the open family. labels alternate name, value
// ("phase", "merge", "run", "run-3"); label values are escaped per the text
// format. The value is rendered without an exponent, so counts read as the
// integers they are.
func (pw *PromWriter) Sample(labels []string, v float64) {
	pw.b.WriteString(pw.cur)
	if len(labels) > 0 {
		pw.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				pw.b.WriteByte(',')
			}
			pw.b.WriteString(labels[i])
			pw.b.WriteString(`="`)
			pw.b.WriteString(labelEscaper.Replace(labels[i+1]))
			pw.b.WriteByte('"')
		}
		pw.b.WriteByte('}')
	}
	pw.b.WriteByte(' ')
	pw.b.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
	pw.b.WriteByte('\n')
}

// Flush writes the accumulated exposition to w. (Not named WriteTo: the
// io.WriterTo signature returns the byte count, which no caller here
// wants, and go vet rightly objects to a lookalike.)
func (pw *PromWriter) Flush(w io.Writer) error {
	_, err := io.WriteString(w, pw.b.String())
	return err
}

// The text format's escapes: a label value's backslash, quote and newline; a
// help string's backslash and newline.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// PromRun is one sort as the Prometheus view takes it: the labels that tell
// it from the others in the exposition (none for a sort on its own), its
// counters, its decision log and, when it recorded spans, their summary.
type PromRun struct {
	Labels    []string
	Counters  Values
	Decisions []StrategyDecision
	Trace     *Summary
}

// WritePrometheus writes one sort's exposition: a family per descriptor of
// the table, the run tally by sort algorithm, and the per-phase span families
// when the sort recorded spans. The registry's /metrics emits the same
// families through the same two functions, labelled by run, so the two
// expositions cannot disagree on a name, a type or a help string.
func WritePrometheus(w io.Writer, run PromRun) error {
	var pw PromWriter
	pw.counterFamilies([]PromRun{run})
	pw.phaseFamilies([]PromRun{run})
	return pw.Flush(w)
}

// counterFamilies emits every descriptor's family, one sample per run, then
// the per-algorithm run tally of the runs that have cut a sorted run.
func (pw *PromWriter) counterFamilies(runs []PromRun) {
	for c := range Descs {
		d := &Descs[c]
		name, typ := d.Family()
		pw.Family(name, typ, d.Help)
		for _, r := range runs {
			pw.Sample(r.Labels, d.Float(r.Counters[c]))
		}
	}
	if !slices.ContainsFunc(runs, func(r PromRun) bool { return len(r.Decisions) > 0 }) {
		return
	}
	pw.Family("rowsort_strategy_runs_total", "counter", "Sorted runs generated, by executed run-generation algorithm.")
	for _, r := range runs {
		for _, ac := range AlgoCounts(r.Decisions) {
			pw.Sample(append(slices.Clip(r.Labels), "algo", ac.Algo), float64(ac.Runs))
		}
	}
}

// phaseFamilies emits the span families of the runs that recorded spans;
// nothing when none did.
func (pw *PromWriter) phaseFamilies(runs []PromRun) {
	if !slices.ContainsFunc(runs, func(r PromRun) bool { return r.Trace != nil }) {
		return
	}
	family := func(name, typ, help string, get func(PhaseStat) float64) {
		pw.Family(name, typ, help)
		for _, r := range runs {
			for p := 0; r.Trace != nil && p < NumPhases; p++ {
				pw.Sample(append(slices.Clip(r.Labels), "phase", Phase(p).String()), get(r.Trace.Phases[p]))
			}
		}
	}
	family("rowsort_phase_busy_seconds", "counter", "Summed span time per sort phase across workers.",
		func(ps PhaseStat) float64 { return ps.Busy.Seconds() })
	family("rowsort_phase_wall_seconds", "gauge", "Earliest-begin to latest-end wall time per sort phase.",
		func(ps PhaseStat) float64 { return ps.Wall.Seconds() })
	family("rowsort_phase_spans_total", "counter", "Spans recorded per sort phase.",
		func(ps PhaseStat) float64 { return float64(ps.Count) })
	pw.Family("rowsort_trace_workers", "gauge", "Trace lanes registered.")
	for _, r := range runs {
		if r.Trace != nil {
			pw.Sample(r.Labels, float64(r.Trace.Workers))
		}
	}
}

// ValidatePrometheus parses data as Prometheus text exposition format and
// reports the first violation of the conventions the rowsort expositions
// promise: every sample's family declared with # HELP and # TYPE lines
// before its first sample, family blocks contiguous, metric and label names
// well-formed, label values properly quoted/escaped, sample values parseable
// floats, and every rowsort family carrying the rowsort_ prefix. Tests use
// it as a parse-check against all /metrics and -metrics outputs.
func ValidatePrometheus(data []byte) error {
	type family struct {
		help, typ bool
		closed    bool // a later family started; more samples are a violation
	}
	families := map[string]*family{}
	var open string // family whose block is currently being emitted
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			if i != len(lines)-1 {
				return fmt.Errorf("line %d: empty line inside exposition", ln)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest, kind := "", ""
			switch {
			case strings.HasPrefix(line, "# HELP "):
				rest, kind = line[len("# HELP "):], "help"
			case strings.HasPrefix(line, "# TYPE "):
				rest, kind = line[len("# TYPE "):], "type"
			default:
				continue // free-form comment
			}
			name, arg, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric name %q in # %s", ln, name, strings.ToUpper(kind))
			}
			f := families[name]
			if f == nil {
				f = &family{}
				families[name] = f
			}
			if kind == "help" {
				if f.help {
					return fmt.Errorf("line %d: duplicate # HELP for %s", ln, name)
				}
				f.help = true
			} else {
				if f.typ {
					return fmt.Errorf("line %d: duplicate # TYPE for %s", ln, name)
				}
				switch arg {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: invalid # TYPE %q for %s", ln, arg, name)
				}
				f.typ = true
			}
			if open != "" && open != name {
				families[open].closed = true
			}
			open = name
			continue
		}

		name, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln, err)
		}
		if strings.HasPrefix(name, "rowsort") && !strings.HasPrefix(name, "rowsort_") {
			return fmt.Errorf("line %d: metric %q missing rowsort_ prefix", ln, name)
		}
		f := families[name]
		if f == nil || !f.help || !f.typ {
			return fmt.Errorf("line %d: sample for %s before its # HELP/# TYPE metadata", ln, name)
		}
		if f.closed {
			return fmt.Errorf("line %d: sample for %s outside its contiguous family block", ln, name)
		}
		if open != "" && open != name {
			families[open].closed = true
		}
		open = name
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: invalid sample value %q: %v", ln, value, err)
		}
	}
	return nil
}

// The text format's tokens: a metric or label name; a quoted label value
// with only the escapes the format allows; the same with any escape, to tell
// a bad escape from a missing quote.
var (
	promName    = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	promQuoted  = regexp.MustCompile(`^"(?:[^"\\]|\\[\\"n])*"`)
	promEscaped = regexp.MustCompile(`^"(?:[^"\\]|\\.)*"`)
)

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool { return s != "" && promName.FindString(s) == s }

// parsePromSample splits `name{l1="v",l2="v"} value` into its name and
// value, validating label syntax and escape sequences on the way.
func parsePromSample(line string) (name, value string, err error) {
	name = promName.FindString(line)
	if name == "" {
		return "", "", fmt.Errorf("missing metric name")
	}
	rest, labelled := strings.CutPrefix(line[len(name):], "{")
	for seen := map[string]bool{}; labelled; {
		if rest == "" {
			return "", "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			rest = rest[1:]
			break
		}
		lname := promName.FindString(rest)
		if lname == "" || !strings.HasPrefix(rest[len(lname):], "=") {
			return "", "", fmt.Errorf("malformed label name at %q", rest)
		}
		rest = rest[len(lname)+1:]
		val := promQuoted.FindString(rest)
		switch {
		case !strings.HasPrefix(rest, `"`):
			return "", "", fmt.Errorf("label value for %s not quoted", lname)
		case val == "" && promEscaped.MatchString(rest):
			return "", "", fmt.Errorf("invalid escape in label value for %s", lname)
		case val == "":
			return "", "", fmt.Errorf("unterminated label value for %s", lname)
		case seen[lname]:
			return "", "", fmt.Errorf("duplicate label %s", lname)
		}
		seen[lname] = true
		rest = strings.TrimPrefix(rest[len(val):], ",")
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return "", "", fmt.Errorf("missing space before sample value")
	}
	if value == "" || strings.ContainsAny(value, " \t") {
		// A trailing timestamp would show up as a second field; the rowsort
		// expositions never emit one.
		return "", "", fmt.Errorf("malformed sample value %q", value)
	}
	return name, value, nil
}
