package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"rowsort/internal/obs"
	"rowsort/internal/workload"
)

// stageIndex orders the lifecycle stage names a snapshot can report.
var stageIndex = map[string]int{
	"pending": 0, "run-generation": 1, "merge": 2, "gather": 3, "done": 4,
}

// getSnapshot polls one run's JSON endpoint.
func getSnapshot(t *testing.T, base, id string) obs.RunSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/rowsort/run?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run endpoint status %d: %s", resp.StatusCode, body)
	}
	var snap obs.RunSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot unmarshal: %v\n%s", err, body)
	}
	return snap
}

// monotonicCounters returns a descriptive error when next regressed any
// counter of the table relative to prev. (The merge comparison counters are
// totals their publisher stores, once per pass and per drain; one drain per
// sort, as here, keeps them monotonic too.)
func monotonicCounters(prev, next obs.RunSnapshot) error {
	for c, d := range obs.Descs {
		if !d.Gauge && next.Counters[c] < prev.Counters[c] {
			return fmt.Errorf("%s went backwards: %d -> %d", d.Name, prev.Counters[c], next.Counters[c])
		}
	}
	if stageIndex[next.Stage] < stageIndex[prev.Stage] {
		return fmt.Errorf("stage went backwards: %s -> %s", prev.Stage, next.Stage)
	}
	return nil
}

// TestLiveRunEndpointTracksForcedSpillSort is the observability plane's
// acceptance test: a budgeted (forced-spill, multi-pass) sort is polled
// mid-flight over HTTP; every poll's counters must be monotonically
// non-decreasing, and the final snapshot must agree exactly with the
// sorter's completed SortStats. Run under -race this also pins down that
// the live snapshot path only touches atomics.
func TestLiveRunEndpointTracksForcedSpillSort(t *testing.T) {
	const rows = 60_000
	tbl := workload.CatalogSales(rows, 10, 7)
	keys := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}}

	reg := obs.NewRegistry(0)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	s, err := NewSorter(tbl.Schema, keys, Options{
		Threads:     2,
		RunSize:     600,
		MemoryLimit: 64 << 10, // far below fan-in × healthy blocks: forces pressure spills and merge passes
		Telemetry:   reg.Recorder("acceptance"),
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := reg.Snapshots()
	if len(snaps) != 1 {
		t.Fatal("sorter did not register with the registry")
	}
	id := snaps[0].ID

	done := make(chan error, 1)
	var sorted int
	go func() {
		done <- func() error {
			sink := s.NewSink()
			for _, c := range tbl.Chunks {
				if err := sink.Append(c); err != nil {
					return err
				}
			}
			if err := sink.Close(); err != nil {
				return err
			}
			if err := s.Finalize(); err != nil {
				return err
			}
			out, err := s.Result()
			if err != nil {
				return err
			}
			sorted = out.NumRows()
			return s.Close()
		}()
	}()

	// Poll mid-flight until the sort completes; every observation must be
	// consistent with the previous one.
	prev := getSnapshot(t, srv.URL, id)
	polls := 1
	for running := true; running; {
		select {
		case err = <-done:
			running = false
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Millisecond):
		}
		snap := getSnapshot(t, srv.URL, id)
		if merr := monotonicCounters(prev, snap); merr != nil {
			t.Fatalf("poll %d: %v", polls, merr)
		}
		if snap.Fraction < 0 || snap.Fraction > 1 {
			t.Fatalf("poll %d: fraction %v out of range", polls, snap.Fraction)
		}
		prev, polls = snap, polls+1
	}
	if sorted != rows {
		t.Fatalf("sorted %d rows, want %d", sorted, rows)
	}

	// The completed snapshot is the sorter's own stats: both are read from
	// the one counter block, so every descriptor agrees, not a chosen few.
	final := getSnapshot(t, srv.URL, id)
	if !final.Done || final.Stage != "done" || final.Fraction != 1 || final.ETA != 0 || final.Label != "acceptance" {
		t.Fatalf("final snapshot not settled: %+v", final)
	}
	st := s.Stats()
	if st.MergePasses == 0 || st.PressureSpills == 0 {
		t.Fatalf("budget forced no multi-pass/pressure work (passes=%d, pressure spills=%d); the test lost its teeth",
			st.MergePasses, st.PressureSpills)
	}
	for c, d := range obs.Descs {
		if got, want := final.Counters[c], st.Counters[c]; got != want {
			t.Errorf("final %s = %d, want %d (SortStats)", d.Name, got, want)
		}
	}
	if c := final.Counters; c[obs.RowsSorted] != rows || c[obs.RowsGathered] != rows || c[obs.RowsIngested] != rows {
		t.Errorf("every row is ingested, sorted and gathered once: %d / %d / %d of %d",
			c[obs.RowsIngested], c[obs.RowsSorted], c[obs.RowsGathered], rows)
	}
	if !reflect.DeepEqual(final.Strategy, st.StrategyDecisions) {
		t.Errorf("the snapshot's decisions diverge from Stats():\nsnapshot: %+v\nstats:    %+v", final.Strategy, st.StrategyDecisions)
	}
}

// TestStageDurationsSumWithRegistryEnabled re-checks the stage-duration
// accounting invariant of stats_test.go with the full observability plane
// attached: publishing progress and registering the run must not perturb
// how the wall time is attributed.
func TestStageDurationsSumWithRegistryEnabled(t *testing.T) {
	tbl := workload.CatalogSales(20_000, 10, 7)
	keys := []SortColumn{{Column: 0}, {Column: 1}, {Column: 2}}
	reg := obs.NewRegistry(0)
	_, st, err := SortTableStats(tbl, keys, Options{
		Threads:   2,
		RunSize:   2_500,
		SpillDir:  t.TempDir(),
		Telemetry: reg.Recorder("durations"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := st.DurRunGen + st.DurMerge + st.DurGather
	if st.DurTotal <= 0 || sum <= 0 {
		t.Fatalf("durations not recorded: stages=%v total=%v", sum, st.DurTotal)
	}
	diff := st.DurTotal - sum
	if diff < 0 {
		diff = -diff
	}
	if diff > st.DurTotal/10+5*time.Millisecond {
		t.Errorf("with registry enabled, stage durations %v vs total %v: off by %v", sum, st.DurTotal, diff)
	}
	snaps := reg.Snapshots()
	if len(snaps) != 1 || !snaps[0].Done {
		t.Fatalf("registry did not record the completed run: %+v", snaps)
	}
}

// TestDisabledObservabilityHooksAllocateNothing pins the disabled fast
// path: with no observer, the hooks the hot paths call — counter adds, stage
// advances, the nil recorder's registration and the nil handle's Done — must
// not allocate.
func TestDisabledObservabilityHooksAllocateNothing(t *testing.T) {
	tbl := workload.CatalogSales(16, 10, 7)
	s, err := NewSorter(tbl.Schema, []SortColumn{{Column: 0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rec *obs.Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		h := rec.Register(obs.RunOptions{Fingerprint: "off"})
		h.Done()
		s.ctr.Add(obs.RowsIngested, 1)
		s.ctr.Add(obs.SpillBytesWritten, 64)
		s.ctr.AdvanceTo(obs.StageRunGen)
		_ = s.ctr.Stage()
	})
	if allocs != 0 {
		t.Fatalf("disabled observability hooks allocate %v per run, want 0", allocs)
	}
}

// TestAdaptiveRunSnapshotCarriesStrategy wires the decision log through the
// observability registry: the run's HTTP snapshot must list the decisions,
// and the Prometheus export must carry the per-algorithm run counts.
func TestAdaptiveRunSnapshotCarriesStrategy(t *testing.T) {
	cols := workload.Dist{Random: true}.Generate(6_000, 1, 145)
	tbl := workload.UintColumnsTable(cols)
	keys := []SortColumn{{Column: 0}}

	reg := obs.NewRegistry(0)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	_, st, err := SortTableStats(tbl, keys, Options{
		Threads: 1, RunSize: 1000,
		Telemetry: reg.Recorder("strategy-snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.StrategyDecisions) == 0 {
		t.Fatal("no decisions recorded")
	}

	snaps := reg.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("registry holds %d runs, want 1", len(snaps))
	}
	snap := getSnapshot(t, srv.URL, snaps[0].ID)
	if len(snap.Strategy) != len(st.StrategyDecisions) {
		t.Fatalf("snapshot carries %d decisions, stats %d", len(snap.Strategy), len(st.StrategyDecisions))
	}
	for i, d := range snap.Strategy {
		if d != st.StrategyDecisions[i] {
			t.Fatalf("decision %d differs: snapshot %+v, stats %+v", i, d, st.StrategyDecisions[i])
		}
	}

	// The sort's own export and the registry's tally the log the same way.
	var prom, regProm strings.Builder
	if err := st.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus([]byte(prom.String())); err != nil {
		t.Fatalf("invalid Prometheus output: %v", err)
	}
	if err := reg.WritePrometheus(&regProm); err != nil {
		t.Fatal(err)
	}
	for _, ac := range obs.AlgoCounts(st.StrategyDecisions) {
		want := fmt.Sprintf("rowsort_strategy_runs_total{algo=%q} %d", ac.Algo, ac.Runs)
		if !strings.Contains(prom.String(), want) {
			t.Errorf("SortStats export is missing %s", want)
		}
		want = fmt.Sprintf("rowsort_strategy_runs_total{run=%q,label=\"strategy-snap\",algo=%q} %d", snaps[0].ID, ac.Algo, ac.Runs)
		if !strings.Contains(regProm.String(), want) {
			t.Errorf("registry export is missing %s", want)
		}
	}
}
