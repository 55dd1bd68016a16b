// Package core implements the paper's primary contribution: a relational
// sort operator for a vectorized interpreted engine, built from the
// techniques of Section VI and structured as DuckDB's sorting pipeline
// (Figure 11):
//
//	input chunks → per-thread sinks → normalized keys + payload row format
//	→ thread-local run generation (each run sorted by rule: radix, then,
//	when string prefixes may tie, the comparator inside each group of
//	byte-equal keys; no sort when a run that cannot tie arrived in order)
//	→ single-pass k-way loser-tree merge with offset-value coding, cut
//	into tasks at fences of the runs by Merge Path's stable rule and run
//	on Options.Threads workers, fused with
//	→ the columnar scan of the result
//
// Keys are compared as plain bytes (one dynamic bytes.Compare per
// comparison), so the interpreted engine pays no per-column interpretation
// or function-call overhead where it matters: inside the sort and the merge.
package core

import (
	"fmt"
	"runtime"
	"strings"

	"rowsort/internal/mem"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/vector"
)

// SortColumn is one ORDER BY term of a sort specification.
type SortColumn struct {
	// Column indexes the sorted table's schema.
	Column int
	// Descending orders the column DESC.
	Descending bool
	// NullsLast places NULLs after all values (default: first).
	NullsLast bool
	// PrefixLen bounds the normalized-key prefix for Varchar columns;
	// 0 means normkey.DefaultStringPrefixLen.
	PrefixLen int
	// CaseInsensitive collates Varchar columns ASCII case-insensitively.
	// Per the paper, the collation is evaluated before the prefix is
	// encoded, so the normalized key already reflects it.
	CaseInsensitive bool
}

// Options tune the sorter; the zero value is a good default.
type Options struct {
	// Threads bounds the sorter's parallelism; 0 means GOMAXPROCS.
	Threads int
	// RunSize is the number of rows per thread-local sorted run; 0 means
	// DefaultRunSize. Smaller runs mean more merging; larger runs mean more
	// run-generation work per thread (Section II's comparison-count model).
	// Under a memory budget it is a cap: the sorter plans a run that fits
	// each sink's share of the budget (see MemoryLimit).
	RunSize int
	// SpillDir, when non-empty, writes sorted runs to files in this
	// directory after run generation and streams them back through
	// fixed-size blocks for a single-pass k-way merge — the
	// unified-row-format offloading sketched in the paper's future work.
	// The merge runs inside the result iterator; its memory stays bounded at
	// Threads × k runs × (1 + ReadAhead) blocks, whatever the output's size,
	// and every spilled byte is read exactly once. A block holds
	// DefaultSpillBlockRows rows, or 512 under a memory budget, whose merge
	// plans its fan-in for one thread's blocks of the size its files hold —
	// and then runs on as many of Threads as the budget left affords. Every
	// block is checksummed, and a read that does not match fails the sort. A
	// result that reads from disk can be iterated once.
	//
	// Without a memory budget (see MemoryLimit/Broker) every run spills as
	// it is cut, preserving the original eager behavior. With a budget,
	// spilling is pressure-driven instead — runs go to disk only when the
	// budget is exceeded — and SpillDir merely names where; when it is
	// empty, a private directory under os.TempDir() is created on first
	// spill and removed by Close.
	SpillDir string
	// ReadAhead is the number of spill blocks per run a merge's block stage
	// decodes ahead, on one background goroutine, of the block the loser tree
	// is consuming: 0 means DefaultReadAhead (double buffering), a negative
	// value disables read-ahead (the synchronous ablation arm: a merge
	// decodes each block when it gets there). Decoded blocks are charged to
	// the sorter's broker, so under a budget the merge planner reserves
	// (1 + ReadAhead) blocks per run.
	ReadAhead int
	// MemoryLimit, when positive, bounds this sorter's resident bytes:
	// sink buffers, sorted runs, pooled buffers, merge blocks, the chunks a
	// parallel merge has produced ahead of the consumer. The budget fixes
	// the run size up front: the sinks' pending runs get half of it, split
	// evenly over Threads sinks, so a run is a function of the input and
	// the budget, not of when pressure struck. Crossing the limit does not
	// fail the sort — resident runs spill to disk, largest first (SpillDir
	// or a temp directory), and the final merge plans its fan-in from the
	// remaining budget. Peak usage can transiently exceed the limit by
	// bounded slack (the run a sink is sorting and reordering, the merge's
	// staging chunk; see DESIGN.md "Memory governance").
	MemoryLimit int64
	// Broker, when non-nil, shares a memory budget across sorters: the
	// sorter carves a child broker (further bounded by MemoryLimit, if
	// set) from it, so N concurrent sorts degrade to disk together
	// instead of OOMing. When nil, a private broker is created; peak
	// accounting (Stats().PeakResidentRunBytes) works either way.
	Broker *mem.Broker
	// Telemetry, when non-nil, is the sort's observer: it records phase
	// spans (ingest, run sort, spill I/O, merge, gather) and per-thread
	// timelines, exportable as Chrome trace_event JSON and Prometheus text,
	// and labels worker goroutines for pprof. A recorder made by an
	// obs.Registry (Registry.Recorder(label)) also registers the sort as a
	// live run there: its counters, progress and decisions are served by the
	// registry's HTTP handler (/debug/rowsort/, /metrics) while it runs
	// and after Close. SortStats counters and stage durations are collected
	// either way (plain atomic adds); nil only means no spans and nobody
	// watching (the zero-allocation fast path).
	Telemetry *obs.Recorder
}

// DefaultRunSize is the default thread-local run size in rows.
const DefaultRunSize = 1 << 17

// DefaultSpillBlockRows is the default spill block granularity.
const DefaultSpillBlockRows = 1 << 12

// budgetSpillBlockRows is the spill block of a sort under a memory budget:
// small enough that a budget streams many runs at once, large enough that a
// read is not per-row I/O. One read a 16-row block cost 32 % more sort time
// than one per 512 rows, and 4,096 was no better (EXPERIMENTS.md, "Spilled
// runs stream through Rows").
const budgetSpillBlockRows = 512

// DefaultReadAhead is the default spill read-ahead depth: one block
// decoding ahead of the one the merge is consuming (double buffering).
const DefaultReadAhead = 1

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) runSize() int {
	if o.RunSize > 0 {
		return o.RunSize
	}
	return DefaultRunSize
}

// readAhead returns the read-ahead depth per spilled run; 0 means disabled.
func (o Options) readAhead() int {
	if o.ReadAhead < 0 {
		return 0
	}
	if o.ReadAhead == 0 {
		return DefaultReadAhead
	}
	return o.ReadAhead
}

// mergeBuffers is the resident blocks the merge plans per run: the one
// being consumed plus any read-ahead.
func (o Options) mergeBuffers() int { return 1 + o.readAhead() }

// limited reports whether a memory budget governs this sort — its own
// MemoryLimit, a shared Broker, or both.
func (o Options) limited() bool { return o.MemoryLimit > 0 || o.Broker != nil }

// Fingerprint renders the options as a compact one-line summary — the run's
// configuration signature in the observability registry, so an operator can
// tell two concurrent runs' setups apart at a glance. It says what the
// options fix: the resolved parallelism and RunSize, then every behavioural
// option set away from its default. Under a budget runsize= is the cap the
// sorter plans its runs under; what a sort plans — its runs, the block
// shape, the fan-in — is in its SortStats, not here.
func (o Options) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "threads=%d runsize=%d", o.threads(), o.runSize())
	if o.SpillDir != "" && !o.limited() {
		b.WriteString(" spill=eager") // under a budget SpillDir only names where
	}
	if o.MemoryLimit > 0 {
		fmt.Fprintf(&b, " budget=%d", o.MemoryLimit)
	}
	if o.Broker != nil {
		b.WriteString(" broker=shared")
	}
	if o.ReadAhead != 0 {
		fmt.Fprintf(&b, " readahead=%d", o.readAhead())
	}
	return b.String()
}

// Validate rejects malformed options with a descriptive error. NewSorter
// calls it up front, so a negative knob can never silently fall through
// to a default deep inside NewSink or Finalize.
func (o Options) Validate() error {
	if o.Threads < 0 {
		return fmt.Errorf("core: Options.Threads is negative (%d); use 0 for GOMAXPROCS", o.Threads)
	}
	if o.RunSize < 0 {
		return fmt.Errorf("core: Options.RunSize is negative (%d); use 0 for the default (%d)", o.RunSize, DefaultRunSize)
	}
	if o.MemoryLimit < 0 {
		return fmt.Errorf("core: Options.MemoryLimit is negative (%d); use 0 for unlimited", o.MemoryLimit)
	}
	return nil
}

// NormKeys maps a sort specification over schema to the key encoder's
// descriptors, each key's Column still the schema's, and rejects a
// specification with no key or with a column out of range or of an invalid
// type. It is the one mapping from SortColumn to normkey.SortKey: the
// sorter, the engine's operators and the system models all use it.
func NormKeys(schema vector.Schema, keys []SortColumn) ([]normkey.SortKey, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("core: sort needs at least one key column")
	}
	nkeys := make([]normkey.SortKey, len(keys))
	for i, k := range keys {
		if k.Column < 0 || k.Column >= len(schema) {
			return nil, fmt.Errorf("core: key %d column index %d out of range (schema has %d columns)",
				i, k.Column, len(schema))
		}
		if !schema[k.Column].Type.IsValid() {
			return nil, fmt.Errorf("core: key %d column %q has invalid type", i, schema[k.Column].Name)
		}
		nk := normkey.SortKey{Column: k.Column, Type: schema[k.Column].Type, PrefixLen: k.PrefixLen}
		if k.Descending {
			nk.Order = normkey.Descending
		}
		if k.NullsLast {
			nk.Nulls = normkey.NullsLast
		}
		if k.CaseInsensitive {
			nk.Collation = normkey.CollationNoCase
		}
		nkeys[i] = nk
	}
	return nkeys, nil
}
