package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
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
	if id := h.ID(); id != "" {
		t.Fatalf("nil handle ID = %q, want empty", id)
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

func TestRegistrySnapshotLifecycle(t *testing.T) {
	g := NewRegistry(4)
	p := &Progress{}
	h := g.Register(RunOptions{
		Label:       "test-sort",
		Fingerprint: "threads=2",
		Progress:    p,
		MemUsed:     func() int64 { return 100 },
		MemPeak:     func() int64 { return 200 },
		MemLimit:    1 << 20,
		FinalStats:  func() any { return map[string]int{"rows": 8} },
	})
	if h.ID() != "run-1" {
		t.Fatalf("first run id = %q, want run-1", h.ID())
	}

	snap, ok := g.Snapshot(h.ID())
	if !ok {
		t.Fatal("snapshot of registered run not found")
	}
	if snap.Done || snap.Stage != "pending" || snap.Fraction != 0 || snap.ETA != -1 {
		t.Fatalf("fresh run snapshot off: %+v", snap)
	}
	if snap.Mem.UsedBytes != 100 || snap.Mem.PeakBytes != 200 || snap.Mem.LimitBytes != 1<<20 {
		t.Fatalf("mem gauges not sampled: %+v", snap.Mem)
	}
	if snap.Final != nil {
		t.Fatal("live run must not carry final stats")
	}

	// Publish some progress: fraction moves, stays in (0, 1), ETA appears.
	p.RowsExpected.Store(1000)
	p.AdvanceTo(StageRunGen)
	p.RowsIngested.Store(1000)
	p.RowsSorted.Store(1000)
	p.AdvanceTo(StageMerge)
	p.MergeRowsPlanned.Store(1000)
	p.RowsMerged.Store(500)
	snap, _ = g.Snapshot(h.ID())
	if snap.Stage != "merge" {
		t.Fatalf("stage = %q, want merge", snap.Stage)
	}
	if snap.Fraction <= 0 || snap.Fraction >= 1 {
		t.Fatalf("mid-run fraction = %v, want in (0, 1)", snap.Fraction)
	}
	if snap.ETA < 0 {
		t.Fatalf("ETA = %v, want an estimate once fraction is meaningful", snap.ETA)
	}
	if len(snap.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(snap.Phases))
	}
	for _, ph := range snap.Phases {
		if ph.Fraction < 0 || ph.Fraction > 1 {
			t.Fatalf("phase %s fraction %v out of range", ph.Name, ph.Fraction)
		}
	}

	h.Done()
	h.Done() // idempotent
	snap, _ = g.Snapshot(h.ID())
	if !snap.Done || snap.Stage != "done" || snap.Fraction != 1 || snap.ETA != 0 {
		t.Fatalf("done snapshot off: done=%v stage=%q fraction=%v eta=%v",
			snap.Done, snap.Stage, snap.Fraction, snap.ETA)
	}
	if snap.Final == nil {
		t.Fatal("done run lost its final stats")
	}
	elapsed := snap.Elapsed
	time.Sleep(5 * time.Millisecond)
	snap, _ = g.Snapshot(h.ID())
	if snap.Elapsed != elapsed {
		t.Fatalf("completed run's elapsed moved: %v -> %v", elapsed, snap.Elapsed)
	}
}

func TestRegistrySnapshotJSONRoundTrips(t *testing.T) {
	g := NewRegistry(0)
	h := g.Register(RunOptions{Recorder: NewRecorder()})
	snap, _ := g.Snapshot(h.ID())
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
	if snaps[0].ID != live.ID() || snaps[0].Done {
		t.Fatalf("live run must come first: %+v", snaps[0])
	}
	// The newest completed runs are the ones kept.
	if snaps[1].ID != handles[4].ID() || snaps[2].ID != handles[3].ID() {
		t.Fatalf("kept wrong runs: %s, %s", snaps[1].ID, snaps[2].ID)
	}
	// Evicted runs are gone, in-flight ones never evicted.
	if _, ok := g.Snapshot(handles[0].ID()); ok {
		t.Fatal("oldest done run should have been evicted")
	}
	if _, ok := g.Snapshot(live.ID()); !ok {
		t.Fatal("live run must never be evicted")
	}
}

func TestRegistryETAUnknownBelowSignalFloor(t *testing.T) {
	g := NewRegistry(0)
	p := &Progress{}
	h := g.Register(RunOptions{Progress: p})
	p.RowsExpected.Store(1_000_000)
	p.AdvanceTo(StageRunGen)
	p.RowsIngested.Store(10) // fraction far below 0.5%
	snap, _ := g.Snapshot(h.ID())
	if snap.ETA != -1 {
		t.Fatalf("ETA = %v with ~0%% progress, want -1 (unknown)", snap.ETA)
	}
}

func TestProgressAdvanceToIsMonotonic(t *testing.T) {
	p := &Progress{}
	p.AdvanceTo(StageMerge)
	entered := p.StageEntered(StageMerge)
	if entered.IsZero() {
		t.Fatal("entry timestamp not recorded")
	}
	p.AdvanceTo(StageRunGen) // behind: no-op
	if p.Stage() != StageMerge {
		t.Fatalf("stage went backwards: %v", p.Stage())
	}
	p.AdvanceTo(StageMerge) // repeat: timestamp unchanged
	if got := p.StageEntered(StageMerge); !got.Equal(entered) {
		t.Fatalf("re-advance changed entry time: %v -> %v", entered, got)
	}
	if !p.StageEntered(StageDone).IsZero() {
		t.Fatal("unreached stage has an entry time")
	}
}

// TestDoneReleasesFinalStatsClosure pins the memory behavior of retained
// completed runs: the FinalStats closure captures the whole sorter, and a
// registry keeping N done runs must not keep N sorters' buffers alive.
// (Observed as a 2x wall-time regression on repeated registered sorts
// before the release was added.)
func TestDoneReleasesFinalStatsClosure(t *testing.T) {
	g := NewRegistry(8)
	type sorterStandIn struct{ buf []byte }
	s := &sorterStandIn{buf: make([]byte, 1<<10)}
	freed := make(chan struct{})
	runtime.SetFinalizer(s, func(*sorterStandIn) { close(freed) })
	h := g.Register(RunOptions{
		Label:      "pinned",
		FinalStats: func() any { return map[string]int{"rows": len(s.buf)} },
	})
	h.Done()
	if snap, ok := g.Snapshot(h.ID()); !ok || snap.Final == nil {
		t.Fatal("final stats not captured before release")
	}
	s = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("retained done run still pins the FinalStats closure's captures")
}

// TestStrategySnapshotLifecycle pins the Strategy closure contract: live
// snapshots sample it, Done freezes its last result and releases the
// closure (same pinning hazard as FinalStats), and snapshots after
// completion serve the frozen copy.
func TestStrategySnapshotLifecycle(t *testing.T) {
	g := NewRegistry(8)
	decisions := []StrategyDecision{{Run: 0, Rows: 100, Algo: "lsd-radix"}}
	type sorterStandIn struct{ buf []byte }
	s := &sorterStandIn{buf: make([]byte, 1<<10)}
	freed := make(chan struct{})
	runtime.SetFinalizer(s, func(*sorterStandIn) { close(freed) })
	h := g.Register(RunOptions{
		Label: "strat",
		Strategy: func() []StrategyDecision {
			_ = len(s.buf) // stand in for capturing the sorter
			return decisions
		},
	})

	snap, ok := g.Snapshot(h.ID())
	if !ok || len(snap.Strategy) != 1 || snap.Strategy[0].Algo != "lsd-radix" {
		t.Fatalf("live snapshot strategy = %+v", snap.Strategy)
	}

	decisions = append(decisions, StrategyDecision{Run: 1, Rows: 50, Algo: "pdqsort"})
	h.Done()
	snap, ok = g.Snapshot(h.ID())
	if !ok || len(snap.Strategy) != 2 || snap.Strategy[1].Algo != "pdqsort" {
		t.Fatalf("frozen snapshot strategy = %+v", snap.Strategy)
	}

	s = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("retained done run still pins the Strategy closure's captures")
}

// TestAlgoCountsTalliesInNameOrder pins the one per-algorithm tally that
// SortStats.String and both Prometheus exports print.
func TestAlgoCountsTalliesInNameOrder(t *testing.T) {
	got := AlgoCounts([]StrategyDecision{{Algo: "pdqsort"}, {Algo: "dup-group"}, {Algo: "pdqsort"}})
	if want := []AlgoCount{{"dup-group", 1}, {"pdqsort", 2}}; !slices.Equal(got, want) {
		t.Fatalf("AlgoCounts = %v, want %v", got, want)
	}
	if got := AlgoCounts(nil); len(got) != 0 {
		t.Fatalf("an empty log tallies to %v", got)
	}
}
