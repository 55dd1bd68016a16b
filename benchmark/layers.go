package main

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"time"

	"rowsort/internal/core"
	"rowsort/internal/mergepath"
	"rowsort/internal/normkey"
	"rowsort/internal/obs"
	"rowsort/internal/radix"
	"rowsort/internal/row"
	"rowsort/internal/rowcmp"
	"rowsort/internal/strategy"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// spanMetrics turns one traced sort's spans into the core.* timings: what the
// sorter's public calls cost as seen from outside.
func spanMetrics(spans []span, into samples) {
	var ingestBusy, finalize, closeDur, firstNext time.Duration
	var rungenFrom, rungenTo, drainFrom, drainTo time.Duration
	var root span
	sawAppend, sawNext := false, false
	for _, s := range spans {
		switch s.Name {
		case "sort":
			root = s
		case "core.sink_append", "core.sink_close":
			ingestBusy += s.dur()
			if !sawAppend || s.Start < rungenFrom {
				rungenFrom, sawAppend = s.Start, true
			}
			rungenTo = max(rungenTo, s.End)
		case "core.finalize":
			finalize = s.dur()
		case "core.rows":
			drainFrom = s.Start
		case "core.rows_next":
			if !sawNext {
				firstNext, sawNext = s.dur(), true
			}
			drainTo = max(drainTo, s.End)
		case "core.close":
			closeDur = s.dur()
		}
	}
	into.add("core.ingest_busy_s", ingestBusy.Seconds())
	into.add("core.rungen_wall_s", (rungenTo - rungenFrom).Seconds())
	into.add("core.finalize_wall_s", finalize.Seconds())
	into.add("core.drain_wall_s", (drainTo - drainFrom).Seconds())
	into.add("core.first_next_s", firstNext.Seconds())
	into.add("core.close_s", closeDur.Seconds())
	into.add("core.sort_self_s", selfTimes(spans)[root.ID].Seconds())
}

// statMetrics reads the counters the sorter publishes in SortStats at the
// boundary, as ratios measured where the work happens.
func statMetrics(st core.SortStats, into samples) {
	rows := float64(st.RowsIngested)
	// The row-format bytes the sorter holds per input: payload rows plus
	// emitted key bytes. Spill amplification is relative to this.
	inputBytes := float64(st.GatherBytesMoved + st.PhysKeyBytes)
	into.add("core.runs_generated", float64(st.RunsGenerated))
	into.add("core.spill_write_amp", ratio(float64(st.SpillBytesWritten), inputBytes))
	into.add("core.spill_read_amp", ratio(float64(st.SpillBytesRead), float64(st.SpillBytesWritten)))
	into.add("core.merge_passes", float64(st.MergePasses))
	into.add("core.merge_pass_bytes_per_row", ratio(float64(st.MergePassBytes), rows))
	into.add("core.merge_fan_in", float64(st.MergeFanIn))
	into.add("core.ext_merge_parts", float64(st.ExtMergeParts))
	into.add("core.pressure_spills", float64(st.PressureSpills))
	into.add("core.prefetch_hit_ratio", ratio(float64(st.PrefetchHits), float64(st.PrefetchedBlocks)))
	into.add("core.merge_stall_s", st.MergeStall.Seconds())
	into.add("mem.pressure_events", float64(st.MemoryPressureEvents))
	into.add("mem.peak_over_limit", ratio(float64(st.PeakResidentRunBytes), float64(st.MemoryLimit)))
	for _, ph := range []obs.Phase{obs.PhaseIngest, obs.PhaseRunSort, obs.PhaseSpillWrite, obs.PhaseSpillRead,
		obs.PhasePrefetch, obs.PhaseMerge, obs.PhaseMergePass, obs.PhasePressureSpill, obs.PhaseGather} {
		into.add("obs.busy_s."+ph.String(), st.Phases.Get(ph).Busy.Seconds())
	}
	into.add("normkey.phys_key_bytes_per_row", ratio(float64(st.PhysKeyBytes), rows))
	into.add("normkey.norm_key_bytes_per_row", ratio(float64(st.NormKeyBytes), rows))
	into.add("row.gather_bytes_per_row", ratio(float64(st.GatherBytesMoved), rows))
	var radixRuns, pdqRuns, dupRuns float64
	for _, d := range st.StrategyDecisions {
		switch {
		case strings.Contains(d.Algo, "radix"):
			radixRuns++
		case d.Algo == strategy.AlgoPdqsort.String():
			pdqRuns++
		case d.Algo == strategy.AlgoDupGroup.String():
			dupRuns++
		}
	}
	into.add("strategy.runs_radix", radixRuns)
	into.add("strategy.runs_pdqsort", pdqRuns)
	into.add("strategy.runs_dupgroup", dupRuns)
	m := st.Merge
	into.add("mergepath.comparisons_per_row", ratio(float64(m.Comparisons), rows))
	into.add("mergepath.ovc_hit_ratio", ratio(float64(m.OVCHits), float64(m.Comparisons)))
	into.add("mergepath.full_compares_per_row", ratio(float64(m.FullCompares), rows))
	into.add("mergepath.tie_breaks_per_row", ratio(float64(m.TieBreaks), rows))
	into.add("mergepath.dup_run_hit_ratio", ratio(float64(m.DupRunHits), rows))
}

// replayKernels runs each lower layer's public kernels once, on one
// goroutine, over the workload's own input: the layer's cost without the
// sorter around it. Sizes follow the workload (its run size, so its fan-in).
func replayKernels(p *prepared, into samples) error {
	schema, n := p.table.Schema, p.rows
	perRow := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

	// normkey: encode every chunk's key columns into key rows laid out as
	// the sorter lays them out (key, 8-byte reference, padded to 8).
	nkeys := make([]normkey.SortKey, len(p.def.Keys))
	for i, k := range p.def.Keys {
		nkeys[i] = normkey.SortKey{Column: k.Column, Type: schema[k.Column].Type}
	}
	enc, err := normkey.NewEncoder(nkeys)
	if err != nil {
		return err
	}
	kw := enc.Width()
	rw := (kw + 8 + 7) &^ 7
	keys := make([]byte, n*rw)
	keyCols := make([]*vector.Vector, len(nkeys))
	var encode time.Duration
	off := 0
	for _, c := range p.table.Chunks {
		for i, k := range nkeys {
			keyCols[i] = c.Vectors[k.Column]
		}
		t := time.Now()
		_, err := enc.EncodeChunk(keyCols, keys[off:], rw, 0)
		encode += time.Since(t)
		if err != nil {
			return err
		}
		off += c.Len() * rw
	}
	for r := 0; r < n; r++ {
		binary.BigEndian.PutUint64(keys[r*rw+kw:], uint64(r))
	}
	into.add("normkey.encode_ns_per_row", perRow(encode))

	// row: scatter every chunk into the row format, gather it back in
	// vector-sized chunks.
	rs := row.NewRowSet(row.NewLayout(schema.Types()))
	rs.Reserve(n)
	t := time.Now()
	for _, c := range p.table.Chunks {
		if err := rs.AppendChunk(c.Vectors); err != nil {
			return err
		}
	}
	into.add("row.scatter_ns_per_row", perRow(time.Since(t)))
	t = time.Now()
	for start := 0; start < n; start += vector.DefaultVectorSize {
		rs.GatherChunk(start, min(vector.DefaultVectorSize, n-start))
	}
	into.add("row.gather_ns_per_row", perRow(time.Since(t)))

	// The workload's runs: consecutive run-sized slices of the key rows.
	runSize := p.opt.RunSize
	if runSize == 0 {
		runSize = core.DefaultRunSize
	}
	runBytes := runSize * rw
	numRuns := (len(keys) + runBytes - 1) / runBytes
	runOf := func(buf []byte, r int) []byte { return buf[r*runBytes : min((r+1)*runBytes, len(buf))] }

	// strategy: plan each run from its unsorted key rows, as a sink does.
	segOffs := make([]int, len(nkeys))
	for i := range nkeys {
		segOffs[i] = enc.Offset(i)
	}
	planner := strategy.NewPlanner(strategy.Config{RowWidth: rw, KeyWidth: kw, SegOffs: segOffs,
		AllowDupGroup: true, DefaultSpillBlockRows: core.DefaultSpillBlockRows})
	t = time.Now()
	for r := 0; r < numRuns; r++ {
		run := runOf(keys, r)
		planner.PlanRun(run, len(run)/rw)
	}
	into.add("strategy.plan_ns_per_run", ratio(float64(time.Since(t).Nanoseconds()), float64(numRuns)))

	// radix and pdqsort: sort copies of the same run-sized key rows.
	sorted := slices.Clone(keys)
	t = time.Now()
	for r := 0; r < numRuns; r++ {
		radix.Sort(runOf(sorted, r), rw, kw)
	}
	into.add("radix.sort_ns_per_row", perRow(time.Since(t)))
	scratch := slices.Clone(keys)
	t = time.Now()
	for r := 0; r < numRuns; r++ {
		rowcmp.SortNormalizedPdq(runOf(scratch, r), rw, kw)
	}
	into.add("sortalgo.pdqsort_ns_per_row", perRow(time.Since(t)))

	// mergepath: merge the radix-sorted runs with and without offset-value
	// codes (computing the codes is part of the coded merge's cost).
	runs := make([]mergepath.Run, numRuns)
	for r := range runs {
		runs[r] = mergepath.Run{Data: runOf(sorted, r), Width: rw}
	}
	merged := scratch
	t = time.Now()
	mergepath.KWayMergeOVC(merged, runs, kw, nil, nil)
	into.add("mergepath.kway_ovc_ns_per_row", perRow(time.Since(t)))
	t = time.Now()
	mergepath.KWayMerge(merged, runs, func(a, b []byte) int { return bytes.Compare(a[:kw], b[:kw]) })
	into.add("mergepath.kway_plain_ns_per_row", perRow(time.Since(t)))

	// normkey front coding, on sorted key blocks of the sorter's default
	// spill block size: only spilling workloads write key blocks.
	var fcEncode, fcDecode time.Duration
	if p.opt.SpillDir != "" {
		blockBytes := core.DefaultSpillBlockRows * rw
		var coded []byte
		decoded := make([]byte, blockBytes)
		for from := 0; from < len(merged); from += blockBytes {
			block := merged[from:min(from+blockBytes, len(merged))]
			rows := len(block) / rw
			t = time.Now()
			coded = normkey.AppendFrontCoded(coded[:0], block, rw, kw, rows)
			fcEncode += time.Since(t)
			t = time.Now()
			err := normkey.DecodeFrontCoded(decoded, coded, rw, kw, rows)
			fcDecode += time.Since(t)
			if err != nil {
				return err
			}
		}
	}
	into.add("normkey.frontcode_encode_ns_per_row", perRow(fcEncode))
	into.add("normkey.frontcode_decode_ns_per_row", perRow(fcDecode))
	return nil
}

// hostRef is the machine's own yardstick: sorting a fixed array of seeded
// int64 with the standard library, on as many goroutines as the sorter has
// threads, each on its own copy. Sort times divided by it compare across
// hosts, and across minutes on one host: a neighbour that takes a CPU slows a
// two-thread sort more than it slows a one-thread kernel.
type hostRef struct {
	ints    []int64
	scratch [benchThreads][]int64
}

const hostRefRows = 1 << 20

func newHostRef(seed uint64, shift uint) *hostRef {
	rng := workload.NewRNG(seed ^ 0x686f7374) // "host": not the workloads' stream
	h := &hostRef{ints: make([]int64, hostRefRows>>shift)}
	for i := range h.ints {
		h.ints[i] = int64(rng.Uint64())
	}
	for g := range h.scratch {
		h.scratch[g] = make([]int64, len(h.ints))
	}
	return h
}

// sliceSort times slices.Sort on fresh copies of the reference array, one
// per goroutine, from the start of the first to the end of the last.
func (h *hostRef) sliceSort() time.Duration {
	for _, s := range h.scratch {
		copy(s, h.ints)
	}
	var wg sync.WaitGroup
	t := time.Now()
	for _, s := range h.scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slices.Sort(s)
		}()
	}
	wg.Wait()
	return time.Since(t)
}

const memcpyBytes = 64 << 20

// memcpyGBPerS times one copy of src into dst.
func memcpyGBPerS(dst, src []byte) float64 {
	t := time.Now()
	copy(dst, src)
	return ratio(float64(len(src)), float64(time.Since(t).Nanoseconds()))
}
