package obs

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Stage is a sort run's coarse lifecycle position, published by the pipeline
// as it crosses stage boundaries. Stages only advance (AdvanceTo is
// monotonic), so concurrent observers never see a run move backwards.
type Stage int32

// The pipeline stages, in lifecycle order.
const (
	// StagePending is a run that has not ingested a row yet.
	StagePending Stage = iota
	// StageRunGen covers ingestion and thread-local run sorting (including
	// eager and pressure-driven spill writes).
	StageRunGen
	// StageMerge covers Finalize: planning the final merge and, for a
	// budgeted sort, the intermediate fan-in-reducing passes with their
	// spill reads.
	StageMerge
	// StageGather covers result materialization (Result or the Rows
	// iterator), which runs the final merge, spill reads included.
	StageGather
	// StageDone is a closed run.
	StageDone

	// NumStages is the number of lifecycle stages.
	NumStages = int(StageDone) + 1
)

var stageNames = [NumStages]string{"pending", "run-generation", "merge", "gather", "done"}

// String returns the stage's display name.
func (st Stage) String() string {
	if int(st) < NumStages {
		return stageNames[st]
	}
	return "unknown"
}

// Counter names one quantity a sort counts. The constants index the
// descriptor table (Descs) and a Block's values; every view of a sort's
// counters — core.SortStats and its String, both Prometheus expositions, the
// registry's JSON snapshot — is generated from that table, so a new counter
// is one constant here, one row there, and a publish site in the pipeline.
type Counter uint8

// The counters, in report order.
const (
	RowsExpected Counter = iota
	RowsIngested
	NormKeyBytes
	RowsSorted
	RunsGenerated
	SpillBytesWritten
	SpillBytesRead
	SpillFCBlocks
	SpillFilesRemoved
	SpillRemoveErrors
	PressureSpills
	PrefetchedBlocks
	PrefetchHits
	MergeStall
	MergeRowsPlanned
	RowsMerged
	MergeComparisons
	MergeOVCHits
	MergeFullCompares
	MergeTieBreaks
	MergeDupRunHits
	MergeBytesMoved
	MergePasses
	MergePassRuns
	MergePassBytes
	MergeFanIn
	ExtMergeParts
	RowsGathered
	GatherBytes
	MemUsed
	MemPeak
	MemLimit
	MemPressureEvents
	DurRunGen
	DurMerge
	DurGather
	DurTotal

	// NumCounters is the number of counters.
	NumCounters = int(DurTotal) + 1
)

// Gauges is what a Block samples when it is read instead of storing: the
// levels of the sort's memory broker (a *mem.Broker satisfies it).
type Gauges interface {
	Used() int64
	Peak() int64
	PressureEvents() int64
}

// Desc describes one counter: the row every view of it is generated from.
type Desc struct {
	// Name is the counter's snake_case name, unit included: the key in the
	// JSON snapshot, the row label (underscores as spaces) in
	// SortStats.String, and — behind "rowsort_", with "_total" after it
	// unless Gauge — the Prometheus family.
	Name string
	// Unit is what the value counts. "seconds" values are held in
	// nanoseconds and shown divided by 1e9; every other unit is shown as held.
	Unit string
	// Layer is the pipeline layer that publishes the counter.
	Layer string
	// Gauge marks a level, a plan figure or a stage's wall time: Prometheus
	// type "gauge". Everything else only grows over a sort's life: "counter".
	Gauge bool
	// Help is the one help string of every exposition.
	Help string
	// Since, when set, makes the counter a stage clock: until the pipeline
	// stores its final value it reads as the time since that stage began.
	Since Stage
	// sample, when set, reads the value from the block's Gauges.
	sample func(Gauges) int64
}

// Family returns the counter's Prometheus metric family name and type.
func (d *Desc) Family() (name, typ string) {
	if d.Gauge {
		return "rowsort_" + d.Name, "gauge"
	}
	return "rowsort_" + d.Name + "_total", "counter"
}

// Float returns a held value in the descriptor's unit.
func (d *Desc) Float(v int64) float64 {
	if d.Unit == "seconds" {
		return float64(v) / 1e9
	}
	return float64(v)
}

// Descs is the descriptor table, indexed by Counter.
var Descs = [NumCounters]Desc{
	RowsExpected:      {Name: "rows_expected", Unit: "rows", Layer: "ingest", Gauge: true, Help: "Declared input rows (0 when unknown)."},
	RowsIngested:      {Name: "rows_ingested", Unit: "rows", Layer: "ingest", Help: "Rows appended through sinks (or TopN)."},
	NormKeyBytes:      {Name: "normalized_key_bytes", Unit: "bytes", Layer: "ingest", Help: "Normalized key bytes produced."},
	RowsSorted:        {Name: "rows_sorted", Unit: "rows", Layer: "run-sort", Help: "Rows that left run generation inside a sorted run."},
	RunsGenerated:     {Name: "runs_generated", Unit: "runs", Layer: "run-sort", Help: "Thread-local sorted runs cut."},
	SpillBytesWritten: {Name: "spill_written_bytes", Unit: "bytes", Layer: "spill", Help: "Bytes written to spill files, intermediate passes included."},
	SpillBytesRead:    {Name: "spill_read_bytes", Unit: "bytes", Layer: "spill", Help: "Bytes read back from spill files."},
	SpillFCBlocks:     {Name: "spill_fc_blocks", Unit: "blocks", Layer: "spill", Help: "Spill blocks written with front-coded key sections."},
	SpillFilesRemoved: {Name: "spill_files_removed", Unit: "files", Layer: "spill", Help: "Spill files deleted."},
	SpillRemoveErrors: {Name: "spill_remove_errors", Unit: "errors", Layer: "spill", Help: "Failed spill-file removals."},
	PressureSpills:    {Name: "pressure_spills", Unit: "runs", Layer: "spill", Help: "Resident runs shed to disk under memory pressure."},
	PrefetchedBlocks:  {Name: "prefetch_blocks", Unit: "blocks", Layer: "spill", Help: "Spill blocks decoded through a read-ahead block stage."},
	PrefetchHits:      {Name: "prefetch_hits", Unit: "blocks", Layer: "spill", Help: "Spill blocks already decoded when a merge first asked."},
	MergeStall:        {Name: "merge_stall_seconds", Unit: "seconds", Layer: "spill", Help: "Time merges spent without a spill block they asked for."},
	MergeRowsPlanned:  {Name: "merge_rows_planned", Unit: "rows", Layer: "merge", Help: "Merge work planned: the input rows plus each intermediate pass's."},
	RowsMerged:        {Name: "rows_merged", Unit: "rows", Layer: "merge", Help: "Rows emitted by merges, including intermediate passes."},
	MergeComparisons:  {Name: "merge_comparisons", Unit: "matches", Layer: "merge", Help: "Two-row matches played in the merge (passes plus the latest result iterator)."},
	MergeOVCHits:      {Name: "merge_ovc_hits", Unit: "matches", Layer: "merge", Help: "Matches decided by offset-value codes alone."},
	MergeFullCompares: {Name: "merge_full_compares", Unit: "matches", Layer: "merge", Help: "Matches that needed row bytes."},
	MergeTieBreaks:    {Name: "merge_tie_breaks", Unit: "matches", Layer: "merge", Help: "Matches resolved by the tie-break comparator."},
	MergeDupRunHits:   {Name: "merge_dup_run_hits", Unit: "rows", Layer: "merge", Help: "Merge steps decided by the duplicate-run fast path."},
	MergeBytesMoved:   {Name: "merge_moved_bytes", Unit: "bytes", Layer: "merge", Help: "Key-row bytes merges copied (intermediate passes only)."},
	MergePasses:       {Name: "merge_passes", Unit: "passes", Layer: "merge", Help: "Intermediate fan-in-reducing merge passes."},
	MergePassRuns:     {Name: "merge_pass_runs", Unit: "runs", Layer: "merge", Help: "Input runs consumed by intermediate merge passes."},
	MergePassBytes:    {Name: "merge_pass_bytes", Unit: "bytes", Layer: "merge", Help: "Bytes rewritten to disk by intermediate merge passes."},
	MergeFanIn:        {Name: "merge_fan_in", Unit: "runs", Layer: "merge", Gauge: true, Help: "The final external merge's fan-in (0 = none ran)."},
	ExtMergeParts:     {Name: "ext_merge_partitions", Unit: "tasks", Layer: "merge", Gauge: true, Help: "Tasks the final merge of spilled runs was claimed in (0 = none ran)."},
	RowsGathered:      {Name: "rows_gathered", Unit: "rows", Layer: "gather", Help: "Rows materialized back into columnar chunks."},
	GatherBytes:       {Name: "gather_bytes", Unit: "bytes", Layer: "gather", Help: "Payload row bytes moved by materialization."},
	MemUsed:           {Name: "mem_used_bytes", Unit: "bytes", Layer: "mem", Gauge: true, Help: "Memory-broker bytes currently reserved by the sort.", sample: Gauges.Used},
	MemPeak:           {Name: "mem_peak_bytes", Unit: "bytes", Layer: "mem", Gauge: true, Help: "High-water mark of bytes reserved from the sort's memory broker.", sample: Gauges.Peak},
	MemLimit:          {Name: "mem_limit_bytes", Unit: "bytes", Layer: "mem", Gauge: true, Help: "Configured memory budget (0 = unlimited)."},
	MemPressureEvents: {Name: "mem_pressure_events", Unit: "events", Layer: "mem", Help: "Reservations the broker could not satisfy within budget.", sample: Gauges.PressureEvents},
	DurRunGen:         {Name: "stage_run_generation_seconds", Unit: "seconds", Layer: "stage", Gauge: true, Help: "Wall time from the first Append to Finalize.", Since: StageRunGen},
	DurMerge:          {Name: "stage_merge_seconds", Unit: "seconds", Layer: "stage", Gauge: true, Help: "Wall time of Finalize.", Since: StageMerge},
	DurGather:         {Name: "stage_gather_seconds", Unit: "seconds", Layer: "stage", Gauge: true, Help: "Wall time of the result iterators, Rows to exhaustion or Close.", Since: StageGather},
	DurTotal:          {Name: "stage_total_seconds", Unit: "seconds", Layer: "stage", Gauge: true, Help: "Wall time from the first Append to the end of the last result iterator.", Since: StageRunGen},
}

// Block is one sort's live counter block: the only place its counters, its
// lifecycle clock and its run-sort decision log are held. The pipeline
// publishes into it once per chunk, run or block — an atomic add, no lock, no
// allocation — and any goroutine may read it at any time. It knows nothing of
// the sorter, so an observer that keeps a block (the Registry does) keeps no
// sort buffer alive.
//
// Reach the values only through the methods: go vet's copylocks check flags
// by-value copies of the atomics.
type Block struct {
	epoch time.Time
	mem   Gauges // nil: the sampled counters read 0
	vals  [NumCounters]atomic.Int64

	// stage is the lifecycle position (a Stage); entered[st] is when it was
	// reached, in nanoseconds since epoch plus one, so zero means "not yet".
	stage   atomic.Int32
	entered [NumStages]atomic.Int64

	mu        sync.Mutex
	decisions []StrategyDecision
}

// NewBlock returns a zeroed block whose clock starts now. mem, when non-nil,
// is sampled for the memory counters.
func NewBlock(mem Gauges) *Block { return &Block{epoch: time.Now(), mem: mem} }

// Add adds n to a counter.
func (b *Block) Add(c Counter, n int64) { b.vals[c].Add(n) }

// Store sets a counter: a declared or planned figure, or one the publisher
// totals itself (a stage's wall time, the merge comparison counters).
func (b *Block) Store(c Counter, n int64) { b.vals[c].Store(n) }

// Now returns the block's monotonic clock reading, in nanoseconds.
func (b *Block) Now() int64 { return int64(time.Since(b.epoch)) }

// AdvanceTo moves the lifecycle stage forward to st, stamping the entry on
// the first arrival. Calls with a stage at or behind the current one are
// no-ops — one atomic load — so racing publishers (two sinks observing the
// first append) and a call per chunk are both fine.
func (b *Block) AdvanceTo(st Stage) {
	for {
		cur := b.stage.Load()
		if int32(st) <= cur {
			return
		}
		if b.stage.CompareAndSwap(cur, int32(st)) {
			b.entered[st].CompareAndSwap(0, b.Now()+1)
			return
		}
	}
}

// Stage returns the current lifecycle stage.
func (b *Block) Stage() Stage { return Stage(b.stage.Load()) }

// StageElapsed returns the time since stage st was entered; 0 when it has
// not been.
func (b *Block) StageElapsed(st Stage) time.Duration {
	if e := b.entered[st].Load(); e > 0 {
		return time.Duration(b.Now() - (e - 1))
	}
	return 0
}

// StopClock stores a stage clock's final value: the time since its stage was
// entered.
func (b *Block) StopClock(c Counter) { b.Store(c, int64(b.StageElapsed(Descs[c].Since))) }

// Value reads one counter: the broker's level for a sampled one, the time
// since its stage began for a stage clock still running, else what the
// pipeline has published.
func (b *Block) Value(c Counter) int64 {
	d := &Descs[c]
	if d.sample != nil {
		if b.mem == nil {
			return 0
		}
		return d.sample(b.mem)
	}
	v := b.vals[c].Load()
	if v == 0 && d.Since != StagePending {
		v = int64(b.StageElapsed(d.Since))
	}
	return v
}

// Snapshot reads every counter. The values are read one at a time, so the
// snapshot is per-counter consistent but not a global atomic cut — what a
// live display needs.
func (b *Block) Snapshot() Values {
	var v Values
	for c := range v {
		v[c] = b.Value(Counter(c))
	}
	return v
}

// Decide appends one run's run-sort decision to the log.
func (b *Block) Decide(d StrategyDecision) {
	b.mu.Lock()
	b.decisions = append(b.decisions, d)
	b.mu.Unlock()
}

// Decisions returns a copy of the decision log.
func (b *Block) Decisions() []StrategyDecision {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]StrategyDecision(nil), b.decisions...)
}

// Values is a point-in-time copy of a block's counters, indexed by Counter
// and held in the block's units (nanoseconds for "seconds" counters). As JSON
// it is one object keyed by descriptor name, each value in its descriptor's
// unit.
type Values [NumCounters]int64

// MarshalJSON implements json.Marshaler.
func (v Values) MarshalJSON() ([]byte, error) {
	byName := make(map[string]float64, len(v))
	for c := range v {
		byName[Descs[c].Name] = Descs[c].Float(v[c])
	}
	return json.Marshal(byName)
}

// UnmarshalJSON implements json.Unmarshaler; names it does not know are
// ignored and counters the object lacks read 0.
func (v *Values) UnmarshalJSON(data []byte) error {
	var byName map[string]float64
	if err := json.Unmarshal(data, &byName); err != nil {
		return err
	}
	for c := range v {
		x := byName[Descs[c].Name]
		if Descs[c].Unit == "seconds" {
			x *= 1e9
		}
		v[c] = int64(math.Round(x))
	}
	return nil
}
