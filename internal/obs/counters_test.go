package obs

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// distinctValues returns a counter snapshot in which every counter holds a
// different, non-zero value.
func distinctValues() Values {
	var v Values
	for c := range v {
		v[c] = int64(c+1) * 1_000_003
	}
	return v
}

// families returns the metric families an exposition declares, in order.
func families(t *testing.T, exposition string) []string {
	t.Helper()
	if err := ValidatePrometheus([]byte(exposition)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, exposition)
	}
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			out = append(out, name)
		}
	}
	return out
}

// retiredCounters are descriptor names that left with what they counted: key
// compression's physical key bytes, dictionary escapes and tie-repaired runs,
// and the duplicate-group run sort's runs and rows.
var retiredCounters = []string{"physical_key_bytes", "key_escapes", "tie_repaired_runs", "dup_group_runs", "dup_group_rows"}

// TestDescriptorTableIsComplete pins the table every view is generated from:
// each row is fully described and named once, and the JSON snapshot carries
// each name exactly once, round-tripping to the values it was made from. No
// retired name is back.
func TestDescriptorTableIsComplete(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z]+(_[a-z]+)*$`)
	seen := map[string]bool{}
	for c, d := range Descs {
		if !snake.MatchString(d.Name) || d.Unit == "" || d.Layer == "" || d.Help == "" {
			t.Errorf("descriptor %d is incomplete: %+v", c, d)
		}
		if seen[d.Name] {
			t.Errorf("descriptor name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if (d.Unit == "seconds") != strings.HasSuffix(d.Name, "_seconds") {
			t.Errorf("descriptor %q: unit %q and name disagree on seconds", d.Name, d.Unit)
		}
		if d.Since != StagePending && d.Unit != "seconds" {
			t.Errorf("descriptor %q is a stage clock in %q", d.Name, d.Unit)
		}
	}
	for _, name := range retiredCounters {
		if seen[name] {
			t.Errorf("descriptor name %q was retired", name)
		}
	}

	want := distinctValues()
	data, err := json.Marshal(RunSnapshot{Counters: want})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Descs {
		if n := strings.Count(string(data), `"`+d.Name+`":`); n != 1 {
			t.Errorf("the JSON snapshot carries %q %d times, want once:\n%s", d.Name, n, data)
		}
	}
	var back RunSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters != want {
		t.Errorf("counters did not survive JSON:\n got %v\nwant %v", back.Counters, want)
	}
}

// TestExpositionsShareFamilies pins the single metric namespace: a sort's own
// exposition and the registry's both validate, declare every descriptor's
// family exactly once, and name the same families — the registry adds only
// its own rowsort_runs_* and rowsort_run_* gauges — and none that was
// retired.
func TestExpositionsShareFamilies(t *testing.T) {
	rec := NewRecorder()
	rec.Worker("w").Begin(PhaseMerge).End()
	sum := rec.Summary()
	decisions := []StrategyDecision{{Algo: "msd-radix"}}

	var own strings.Builder
	if err := WritePrometheus(&own, PromRun{Counters: distinctValues(), Decisions: decisions, Trace: &sum}); err != nil {
		t.Fatal(err)
	}
	ownFams := families(t, own.String())

	g := NewRegistry(0)
	live := g.Recorder("live").Register(RunOptions{})
	live.ri.opt.Block.Decide(decisions[0])
	g.Register(RunOptions{Label: "untraced"}).Done()
	var reg strings.Builder
	if err := g.WritePrometheus(&reg); err != nil {
		t.Fatal(err)
	}
	regFams := families(t, reg.String())

	count := func(fams []string, name string) (n int) {
		for _, f := range fams {
			if f == name {
				n++
			}
		}
		return n
	}
	for _, d := range Descs {
		fam, typ := d.Family()
		if count(ownFams, fam) != 1 || count(regFams, fam) != 1 {
			t.Errorf("%s is declared %d times by a sort and %d times by the registry, want once each",
				fam, count(ownFams, fam), count(regFams, fam))
		}
		if (typ == "counter") != strings.HasSuffix(fam, "_total") || !strings.Contains(own.String(), "# TYPE "+fam+" "+typ+"\n") {
			t.Errorf("%s: type %s and the _total suffix disagree, or the exposition types it otherwise", fam, typ)
		}
	}
	for _, f := range ownFams {
		if count(regFams, f) != 1 {
			t.Errorf("the registry declares a sort's family %s %d times", f, count(regFams, f))
		}
	}
	for _, f := range regFams {
		if count(ownFams, f) == 0 && !strings.HasPrefix(f, "rowsort_runs_") && !strings.HasPrefix(f, "rowsort_run_") {
			t.Errorf("the registry declares %s, which is neither a sort's family nor a registry gauge", f)
		}
	}
	// Key compression's sampling pass was the span phase key-plan.
	gone := []string{`phase="key-plan"`}
	for _, name := range retiredCounters {
		gone = append(gone, "rowsort_"+name+"_total")
	}
	for _, series := range gone {
		if strings.Contains(own.String(), series) || strings.Contains(reg.String(), series) {
			t.Errorf("an exposition still carries %s", series)
		}
	}
	if len(ownFams) <= NumCounters || len(regFams) <= len(ownFams) {
		t.Errorf("%d sort families over %d counters, %d registry families: strategy, span or registry families are missing",
			len(ownFams), NumCounters, len(regFams))
	}
}
