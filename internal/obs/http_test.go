package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveReg spins up the registry's handler and returns a GET helper.
func serveReg(t *testing.T, g *Registry) func(path string) (*http.Response, string) {
	t.Helper()
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp, string(body)
	}
}

func TestHTTPIndex(t *testing.T) {
	g := NewRegistry(0)
	get := serveReg(t, g)

	resp, body := get("/debug/rowsort/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "No runs registered yet") {
		t.Fatalf("empty index missing placeholder:\n%s", body)
	}

	h := g.Register(RunOptions{Label: "idx-sort", Fingerprint: "threads=2"})
	_, body = get("/debug/rowsort/")
	for _, want := range []string{"idx-sort", h.ri.id, ">live<"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q:\n%s", want, body)
		}
	}

	// Unknown subpaths under the index prefix are 404, not the index.
	resp, _ = get("/debug/rowsort/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown subpath status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPRunSnapshot(t *testing.T) {
	g := NewRegistry(0)
	get := serveReg(t, g)

	resp, _ := get("/debug/rowsort/run?id=run-99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run status = %d, want 404", resp.StatusCode)
	}

	p := NewBlock(nil)
	h := g.Register(RunOptions{Label: "json-sort", Block: p})
	p.AdvanceTo(StageRunGen)
	p.Add(RowsIngested, 42)

	resp, body := get("/debug/rowsort/run?id=" + h.ri.id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("run content type = %q", ct)
	}
	var snap RunSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("run body is not a RunSnapshot: %v\n%s", err, body)
	}
	if snap.ID != h.ri.id || snap.Counters[RowsIngested] != 42 || snap.Stage != "run-generation" {
		t.Fatalf("snapshot off: %+v", snap)
	}
}

func TestHTTPTraceGatedOnCompletion(t *testing.T) {
	g := NewRegistry(0)
	get := serveReg(t, g)

	resp, _ := get("/debug/rowsort/trace?id=run-99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run trace status = %d, want 404", resp.StatusCode)
	}

	noTrace := g.Register(RunOptions{})
	resp, _ = get("/debug/rowsort/trace?id=" + noTrace.ri.id)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recorder-less run trace status = %d, want 404", resp.StatusCode)
	}

	rec := NewRecorder()
	sp := rec.Worker("w").Begin(PhaseMerge)
	sp.End()
	h := g.Register(RunOptions{Recorder: rec})

	// WriteTrace reads unsynchronized span buffers: live runs must be
	// refused, not raced.
	resp, _ = get("/debug/rowsort/trace?id=" + h.ri.id)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("live run trace status = %d, want 409", resp.StatusCode)
	}

	h.Done()
	resp, body := get("/debug/rowsort/trace?id=" + h.ri.id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("done run trace status = %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, h.ri.id+"-trace.json") {
		t.Fatalf("trace disposition = %q", cd)
	}
	if !strings.Contains(body, `"traceEvents"`) || !strings.Contains(body, `"merge"`) {
		t.Fatalf("trace body missing events:\n%s", body)
	}
}

func TestHTTPMetricsValidate(t *testing.T) {
	g := NewRegistry(0)
	get := serveReg(t, g)

	p := NewBlock(fakeGauges{used: 7})
	rec := NewRecorder()
	rec.Worker("w").Begin(PhaseSort).End()
	live := g.Register(RunOptions{Label: "live-run", Block: p, Recorder: rec})
	p.AdvanceTo(StageRunGen)
	p.Add(RowsIngested, 5)
	finished := g.Register(RunOptions{Label: "done-run"})
	finished.Done()
	plans := NewBlock(nil)
	planned := g.Register(RunOptions{Label: "planned-run", Block: plans})
	for i, algo := range []string{"lsd-radix", "msd-radix", "lsd-radix"} {
		plans.Decide(StrategyDecision{Run: i, Rows: 10, Algo: algo})
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	if err := ValidatePrometheus([]byte(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"rowsort_runs_live 2",
		"rowsort_runs_retained 3",
		`rowsort_rows_ingested_total{run="` + live.ri.id + `",label="live-run"} 5`,
		`rowsort_run_done{run="` + finished.ri.id + `",label="done-run"} 1`,
		`rowsort_mem_used_bytes{run="` + live.ri.id + `",label="live-run"} 7`,
		`rowsort_phase_busy_seconds{run="` + live.ri.id + `",label="live-run",phase="sort"}`,
		`rowsort_strategy_runs_total{run="` + planned.ri.id + `",label="planned-run",algo="lsd-radix"} 2`,
		`rowsort_strategy_runs_total{run="` + planned.ri.id + `",label="planned-run",algo="msd-radix"} 1`,
		"# HELP rowsort_run_elapsed_seconds",
		"# TYPE rowsort_run_elapsed_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Progress is counted per phase, not estimated per run.
	for _, gone := range []string{"rowsort_run_progress_ratio", "rowsort_run_eta_seconds"} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics still carry %s", gone)
		}
	}
}
