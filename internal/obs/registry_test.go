package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestNilRegistryAndHandleAreNoOps(t *testing.T) {
	var g *Registry
	h := g.Register(RunOptions{Label: "x"})
	if h != nil {
		t.Fatal("nil registry must return a nil handle")
	}
	h.Done() // must not panic
	if snaps := g.Snapshots(); snaps != nil {
		t.Fatalf("nil registry Snapshots = %v, want nil", snaps)
	}
	if _, ok := g.Snapshot("run-1"); ok {
		t.Fatal("nil registry Snapshot must report not found")
	}
	if err := g.WritePrometheus(discard{}); err != nil {
		t.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// fakeGauges stands in for the sort's memory broker.
type fakeGauges struct{ used, peak, events int64 }

func (f fakeGauges) Used() int64           { return f.used }
func (f fakeGauges) Peak() int64           { return f.peak }
func (f fakeGauges) PressureEvents() int64 { return f.events }

func TestRegistrySnapshotLifecycle(t *testing.T) {
	g := NewRegistry(4)
	p := NewBlock(fakeGauges{used: 100, peak: 200, events: 3})
	p.Store(MemLimit, 1<<20)
	h := g.Register(RunOptions{Label: "test-sort", Fingerprint: "threads=2", Block: p})
	if h.ri.id != "run-1" {
		t.Fatalf("first run id = %q, want run-1", h.ri.id)
	}

	snap, ok := g.Snapshot(h.ri.id)
	if !ok {
		t.Fatal("snapshot of registered run not found")
	}
	if snap.Done || snap.Stage != "pending" {
		t.Fatalf("fresh run snapshot off: %+v", snap)
	}
	for _, ph := range snap.Phases {
		if ph.Done != 0 || ph.Fraction != 0 || ph.RowsPerSec != 0 {
			t.Fatalf("fresh run's phase %s has progress: %+v", ph.Name, ph)
		}
	}
	if c := snap.Counters; c[MemUsed] != 100 || c[MemPeak] != 200 || c[MemPressureEvents] != 3 || c[MemLimit] != 1<<20 {
		t.Fatalf("mem gauges not sampled: %+v", c)
	}

	// Publish some progress: the phases count it, each fraction in [0, 1],
	// the merge's at half.
	p.Store(RowsExpected, 1000)
	p.AdvanceTo(StageRunGen)
	p.Add(RowsIngested, 1000)
	p.Add(RowsSorted, 1000)
	p.AdvanceTo(StageMerge)
	p.Add(MergeRowsPlanned, 1000)
	p.Add(RowsMerged, 500)
	snap, _ = g.Snapshot(h.ri.id)
	if snap.Stage != "merge" {
		t.Fatalf("stage = %q, want merge", snap.Stage)
	}
	if len(snap.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(snap.Phases))
	}
	for _, ph := range snap.Phases {
		if ph.Fraction < 0 || ph.Fraction > 1 {
			t.Fatalf("phase %s fraction %v out of range", ph.Name, ph.Fraction)
		}
	}
	if f := snap.Phases[2].Fraction; snap.Phases[2].Name != "merge" || f != 0.5 {
		t.Fatalf("mid-run phase %s fraction = %v, want merge at 0.5", snap.Phases[2].Name, f)
	}

	p.Add(RowsMerged, 500)
	p.Add(RowsGathered, 1000)
	h.Done()
	h.Done() // idempotent
	snap, _ = g.Snapshot(h.ri.id)
	if !snap.Done || snap.Stage != "done" {
		t.Fatalf("done snapshot off: done=%v stage=%q", snap.Done, snap.Stage)
	}
	for _, ph := range snap.Phases {
		if ph.Fraction != 1 {
			t.Fatalf("done run's phase %s fraction = %v, want 1", ph.Name, ph.Fraction)
		}
	}
	if snap.Counters[RowsMerged] != 1000 {
		t.Fatal("done run lost its counters")
	}
	elapsed := snap.Elapsed
	time.Sleep(5 * time.Millisecond)
	snap, _ = g.Snapshot(h.ri.id)
	if snap.Elapsed != elapsed {
		t.Fatalf("completed run's elapsed moved: %v -> %v", elapsed, snap.Elapsed)
	}
}

func TestRegistrySnapshotJSONRoundTrips(t *testing.T) {
	g := NewRegistry(0)
	h := g.Register(RunOptions{Recorder: NewRecorder()})
	snap, _ := g.Snapshot(h.ri.id)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != snap.ID || back.Stage != snap.Stage || back.Trace == nil {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestRegistryEvictsOldestDoneRuns(t *testing.T) {
	g := NewRegistry(2)
	var handles []*RunHandle
	for i := 0; i < 5; i++ {
		handles = append(handles, g.Register(RunOptions{Label: fmt.Sprintf("r%d", i)}))
	}
	live := g.Register(RunOptions{Label: "live"})
	for _, h := range handles {
		h.Done()
	}
	snaps := g.Snapshots()
	if len(snaps) != 3 { // 1 live + keep(2) done
		t.Fatalf("retained %d runs, want 3", len(snaps))
	}
	if snaps[0].ID != live.ri.id || snaps[0].Done {
		t.Fatalf("live run must come first: %+v", snaps[0])
	}
	// The newest completed runs are the ones kept.
	if snaps[1].ID != handles[4].ri.id || snaps[2].ID != handles[3].ri.id {
		t.Fatalf("kept wrong runs: %s, %s", snaps[1].ID, snaps[2].ID)
	}
	// Evicted runs are gone, in-flight ones never evicted.
	if _, ok := g.Snapshot(handles[0].ri.id); ok {
		t.Fatal("oldest done run should have been evicted")
	}
	if _, ok := g.Snapshot(live.ri.id); !ok {
		t.Fatal("live run must never be evicted")
	}
}

// TestRegistryPhasesPlanDeclaredRows: a declared row count is every phase's
// denominator from the start, so a sliver of progress reads as the sliver it
// is, not as a phase done.
func TestRegistryPhasesPlanDeclaredRows(t *testing.T) {
	g := NewRegistry(0)
	p := NewBlock(nil)
	h := g.Register(RunOptions{Block: p})
	p.Store(RowsExpected, 1_000_000)
	p.AdvanceTo(StageRunGen)
	p.Add(RowsIngested, 10)
	snap, _ := g.Snapshot(h.ri.id)
	for _, ph := range snap.Phases {
		if ph.Planned != 1_000_000 {
			t.Fatalf("phase %s plans %d rows, want the declared 1000000", ph.Name, ph.Planned)
		}
	}
	if in := snap.Phases[0]; in.Done != 10 || in.Fraction != 1e-5 {
		t.Fatalf("ingest = %+v, want 10 rows done, fraction 1e-5", in)
	}
}

func TestProgressAdvanceToIsMonotonic(t *testing.T) {
	p := NewBlock(nil)
	p.AdvanceTo(StageMerge)
	entered := p.entered[StageMerge].Load()
	if entered == 0 {
		t.Fatal("entry timestamp not recorded")
	}
	p.AdvanceTo(StageRunGen) // behind: no-op
	if p.Stage() != StageMerge {
		t.Fatalf("stage went backwards: %v", p.Stage())
	}
	time.Sleep(time.Millisecond)
	p.AdvanceTo(StageMerge) // repeat: timestamp unchanged
	if got := p.entered[StageMerge].Load(); got != entered {
		t.Fatalf("re-advance changed entry time: %v -> %v", entered, got)
	}
	if p.StageElapsed(StageMerge) < time.Millisecond {
		t.Fatalf("a stage entered a millisecond ago reads %v", p.StageElapsed(StageMerge))
	}
	if p.StageElapsed(StageDone) != 0 {
		t.Fatal("unreached stage has an entry time")
	}
}

// TestStageClockRunsUntilStopped pins the lifecycle clock's one rule: a stage
// clock reads as the time since its stage began until the pipeline stores
// its final value, and as that value afterwards.
func TestStageClockRunsUntilStopped(t *testing.T) {
	b := NewBlock(nil)
	if v := b.Value(DurRunGen); v != 0 {
		t.Fatalf("run generation took %d ns before it began", v)
	}
	b.AdvanceTo(StageRunGen)
	time.Sleep(2 * time.Millisecond)
	live := b.Value(DurRunGen)
	if live < int64(2*time.Millisecond) {
		t.Fatalf("a running stage clock reads %d ns after 2 ms", live)
	}
	b.AdvanceTo(StageMerge)
	b.StopClock(DurRunGen)
	stopped := b.Value(DurRunGen)
	time.Sleep(2 * time.Millisecond)
	if got := b.Value(DurRunGen); got != stopped || stopped < live {
		t.Fatalf("a stopped stage clock moved: %d -> %d (it read %d while running)", stopped, got, live)
	}
	if total := b.Value(DurTotal); total <= stopped {
		t.Fatalf("the total clock, still running, reads %d ns after a %d ns stage", total, stopped)
	}
}

// TestStrategySnapshotLifecycle pins that live and done snapshots carry the
// run's decisions — all that have been logged when the snapshot is taken,
// as a copy the log's growth cannot reach. (That retaining the run keeps no
// sorter alive is core's TestRetainedRunLeavesSorterCollectable: the registry
// holds the block, and the block has no way to refer to a sorter.)
func TestStrategySnapshotLifecycle(t *testing.T) {
	g := NewRegistry(8)
	b := NewBlock(nil)
	h := g.Register(RunOptions{Label: "strat", Block: b})
	b.Decide(StrategyDecision{Run: 0, Rows: 100, Algo: "lsd-radix"})

	live, ok := g.Snapshot(h.ri.id)
	if !ok || len(live.Strategy) != 1 || live.Strategy[0].Algo != "lsd-radix" {
		t.Fatalf("live snapshot strategy = %+v", live.Strategy)
	}

	b.Decide(StrategyDecision{Run: 1, Rows: 50, Algo: "msd-radix", Why: "tie-break"})
	h.Done()
	snap, ok := g.Snapshot(h.ri.id)
	if !ok || len(snap.Strategy) != 2 || snap.Strategy[1].Algo != "msd-radix" {
		t.Fatalf("done snapshot strategy = %+v", snap.Strategy)
	}
	if len(live.Strategy) != 1 {
		t.Fatalf("a later decision reached an earlier snapshot: %+v", live.Strategy)
	}
	// A decision is run, rows, kernel and why on the wire: the sampled plan's
	// statistics, costs, merge role and spill hints are gone.
	raw, err := json.Marshal(snap.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"run":0,"rows":100,"algo":"lsd-radix"},{"run":1,"rows":50,"algo":"msd-radix","why":"tie-break"}]`; string(raw) != want {
		t.Fatalf("decisions serialize as %s, want %s", raw, want)
	}
}

// TestRecorderFromRegistryRegistersRuns pins the one way a sort joins a
// registry: through the recorder the registry hands out. Any other recorder,
// and a nil one, registers nothing.
func TestRecorderFromRegistryRegistersRuns(t *testing.T) {
	g := NewRegistry(0)
	rec := g.Recorder("watched")
	h := rec.Register(RunOptions{Fingerprint: "threads=1"})
	snap, ok := g.Snapshot(h.ri.id)
	if !ok || snap.Label != "watched" || snap.Fingerprint != "threads=1" || snap.Trace == nil {
		t.Fatalf("run registered through the registry's recorder: %+v (found %v)", snap, ok)
	}
	if h := NewRecorder().Register(RunOptions{}); h != nil {
		t.Fatal("a recorder no registry made registered a run")
	}
	var nilReg *Registry
	if rec := nilReg.Recorder("x"); rec == nil || rec.Register(RunOptions{}) != nil {
		t.Fatal("a nil registry's recorder must record spans and register nothing")
	}
	var nilRec *Recorder
	if nilRec.Register(RunOptions{}) != nil || len(g.Snapshots()) != 1 {
		t.Fatal("a nil recorder registered a run")
	}
}

// TestAlgoCountsTalliesInNameOrder pins the one per-algorithm tally that
// SortStats.String and both Prometheus exports print.
func TestAlgoCountsTalliesInNameOrder(t *testing.T) {
	got := AlgoCounts([]StrategyDecision{{Algo: "none"}, {Algo: "lsd-radix"}, {Algo: "none"}})
	if want := []AlgoCount{{"lsd-radix", 1}, {"none", 2}}; !slices.Equal(got, want) {
		t.Fatalf("AlgoCounts = %v, want %v", got, want)
	}
	if got := AlgoCounts(nil); len(got) != 0 {
		t.Fatalf("an empty log tallies to %v", got)
	}
}
