package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rowsort/internal/core"
)

// testShift scales the workloads to a few thousand rows.
const testShift = 8

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func testConfig(t *testing.T, workload, trace string) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 42, rounds: 2, trace: trace, shift: testShift,
		out: filepath.Join(dir, "report.json"), traceOut: filepath.Join(dir, "trace.json")}
}

// TestReportMatchesManifest runs every workload through both passes at tiny
// scale and checks that BENCHMARK.json, the metric tables, the JSON report
// and the printed lines all name the same workloads and metrics, once each.
func TestReportMatchesManifest(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, the benchmark has %d/%d/%d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64 long", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sawSetup := false
	for i, e := range m.EndToEnd {
		unique(e.Name)
		if got := (metricDef{e.Name, e.Unit, e.Better, e.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the benchmark", i, got, endToEnd[i])
		}
		if e.Bound < 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", e.Name, e.Bound)
		}
		sawSetup = sawSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, p := range m.PerLayer {
		unique(p.Name)
		if got := (metricDef{Name: p.Name, Unit: p.Unit, Better: p.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the benchmark", i, got, perLayer[i])
		}
	}

	cfg := testConfig(t, "all", "both")
	var stdout bytes.Buffer
	ok, err := run(cfg, &stdout)
	if err != nil || !ok {
		t.Fatalf("run: ok=%v err=%v\n%s", ok, err, stdout.String())
	}

	// The printed lines: workload metric value unit, each pair exactly once.
	printed := map[string]int{}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("malformed metric line %q", line)
			}
			printed[f[0]+" "+f[1]]++
		}
	}
	// The JSON report.
	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(m.Workloads) {
		t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(rep.Workloads), len(m.Workloads))
	}
	want := 0
	for i, w := range rep.Workloads {
		if w.Name != m.Workloads[i].Name {
			t.Errorf("report workload %d is %q, BENCHMARK.json says %q", i, w.Name, m.Workloads[i].Name)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d sorts failed: %v", w.Name, w.Failed, w.Attempted, w.Errors)
		}
		if len(w.EndToEnd) != len(m.EndToEnd) || len(w.PerLayer) != len(m.PerLayer) {
			t.Errorf("%s: report has %d end-to-end and %d per-layer metrics, BENCHMARK.json %d and %d",
				w.Name, len(w.EndToEnd), len(w.PerLayer), len(m.EndToEnd), len(m.PerLayer))
		}
		for _, e := range m.EndToEnd {
			want++
			if v, ok := w.EndToEnd[e.Name]; !ok || v.Unit != e.Unit {
				t.Errorf("%s: end-to-end metric %s missing from the report or in unit %q, not %q", w.Name, e.Name, v.Unit, e.Unit)
			} else if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, e.Name, v.Value)
			}
			if printed[w.Name+" "+e.Name] != 1 {
				t.Errorf("%s %s printed %d times, want once", w.Name, e.Name, printed[w.Name+" "+e.Name])
			}
		}
		for _, p := range m.PerLayer {
			want++
			if v, ok := w.PerLayer[p.Name]; !ok || v.Unit != p.Unit {
				t.Errorf("%s: per-layer metric %s missing from the report or in unit %q, not %q", w.Name, p.Name, v.Unit, p.Unit)
			}
			if printed[w.Name+" "+p.Name] != 1 {
				t.Errorf("%s %s printed %d times, want once", w.Name, p.Name, printed[w.Name+" "+p.Name])
			}
		}
	}
	if len(printed) != want {
		t.Errorf("%d metric lines printed, want %d", len(printed), want)
	}
	// The trace the traced pass wrote loads as trace_event JSON.
	raw, err = os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace: %d events, err %v", len(tf.TraceEvents), err)
	}
}

// TestResultLine checks the last line of a one-workload run: exactly the
// four keys, and the end-to-end metrics untraced, the per-layer ones traced.
func TestResultLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout bytes.Buffer
		if ok, err := run(testConfig(t, "ext-catalog-spill", trace), &stdout); err != nil || !ok {
			t.Fatalf("-trace %s: ok=%v err=%v\n%s", trace, ok, err, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("-trace %s: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("-trace %s: last line has keys %v, want correct, attempted, failed, metrics", trace, line)
		}
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("-trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("-trace %s: %d metrics on the last line, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("-trace %s: metric %s missing or in unit %q", trace, d.Name, v.Unit)
			}
		}
	}
}

// TestVerifierRejectsWrongOutput sorts a workload's input with the sorter,
// checks the verifier accepts it, then damages the output two ways.
func TestVerifierRejectsWrongOutput(t *testing.T) {
	def, _ := findWorkload("mem-uniform-int")
	p, err := prepare(def, 7, testShift, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := core.SortTable(p.table, def.Keys, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(p, sorted.Chunks); err != nil {
		t.Fatalf("verifier rejects a correct sort: %v", err)
	}

	// Swap two adjacent output rows (keys are uniform 64-bit: they differ).
	keys, payload := sorted.Chunks[0].Vectors[0].Int64s(), sorted.Chunks[0].Vectors[1].Int64s()
	keys[10], keys[11] = keys[11], keys[10]
	payload[10], payload[11] = payload[11], payload[10]
	if err := verify(p, sorted.Chunks); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("swapped rows: verifier said %v, want an out-of-order error", err)
	}
	keys[10], keys[11] = keys[11], keys[10]
	payload[10], payload[11] = payload[11], payload[10]

	// Change one payload value: keys still in order, rows no longer the input's.
	payload[10]++
	if err := verify(p, sorted.Chunks); err == nil || !strings.Contains(err.Error(), "permutation") {
		t.Fatalf("altered payload: verifier said %v, want a not-a-permutation error", err)
	}
	payload[10]--

	// Drop the last chunk.
	if err := verify(p, sorted.Chunks[:len(sorted.Chunks)-1]); err == nil {
		t.Fatal("verifier accepts an output that lost rows")
	}
}
