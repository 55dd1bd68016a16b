package main

import (
	"slices"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds; the self-test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median a PR may lose; end-to-end only
}

// endToEnd is what an engine calling ORDER BY sees: time to the sorted
// result, its tail, time to the first chunk, memory and allocation volume.
// The sizing host's speed drifts by 10-20% over minutes, so times are
// reported as multiples of the host reference kernel timed right after each
// sort (README.md, "Why times are ratios"); raw seconds are per-layer
// metrics. Bounds come from the A/A sets recorded in README.md.
var endToEnd = []metricDef{
	{"sort_cost_vs_ref", "ratio", "lower", 0.25},
	{"sort_tail_vs_ref", "ratio", "lower", 0.25},
	{"first_chunk_vs_ref", "ratio", "lower", 0.25},
	{"peak_resident_bytes", "bytes", "lower", 0.10},
	{"alloc_bytes_per_row", "bytes", "lower", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced pass; the prefix is the module
// (internal/<prefix>) the number belongs to, host.* the machine itself.
var perLayer = []metricDef{
	{Name: "core.sort_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.first_chunk_s", Unit: "s", Better: "lower"},
	{Name: "core.allocs_per_sort", Unit: "count", Better: "lower"},
	{Name: "core.ingest_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.rungen_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.finalize_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.drain_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.first_next_s", Unit: "s", Better: "lower"},
	{Name: "core.close_s", Unit: "s", Better: "lower"},
	{Name: "core.sort_self_s", Unit: "s", Better: "lower"},
	{Name: "core.speedup_2t_over_1t", Unit: "ratio", Better: "higher"},
	{Name: "core.runs_generated", Unit: "count", Better: "lower"},
	{Name: "core.spill_write_amp", Unit: "ratio", Better: "lower"},
	{Name: "core.spill_read_amp", Unit: "ratio", Better: "lower"},
	{Name: "core.merge_passes", Unit: "count", Better: "lower"},
	{Name: "core.merge_pass_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "core.merge_fan_in", Unit: "count", Better: "higher"},
	{Name: "core.ext_merge_parts", Unit: "count", Better: "higher"},
	{Name: "core.pressure_spills", Unit: "count", Better: "lower"},
	{Name: "core.prefetch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.merge_stall_s", Unit: "s", Better: "lower"},
	{Name: "mem.pressure_events", Unit: "count", Better: "lower"},
	{Name: "mem.peak_over_limit", Unit: "ratio", Better: "lower"},
	{Name: "obs.busy_s.ingest", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.run-sort", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.spill-write", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.spill-read", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.prefetch", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.merge", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.merge-pass", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.pressure-spill", Unit: "s", Better: "lower"},
	{Name: "obs.busy_s.gather", Unit: "s", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "normkey.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "normkey.phys_key_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "normkey.norm_key_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "normkey.frontcode_encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "normkey.frontcode_decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "row.scatter_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "row.gather_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "row.gather_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "strategy.plan_ns_per_run", Unit: "ns", Better: "lower"},
	{Name: "strategy.runs_radix", Unit: "count", Better: "higher"},
	{Name: "strategy.runs_pdqsort", Unit: "count", Better: "lower"},
	{Name: "strategy.runs_dupgroup", Unit: "count", Better: "higher"},
	{Name: "radix.sort_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "sortalgo.pdqsort_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mergepath.kway_ovc_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mergepath.kway_plain_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mergepath.comparisons_per_row", Unit: "count", Better: "lower"},
	{Name: "mergepath.ovc_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mergepath.full_compares_per_row", Unit: "count", Better: "lower"},
	{Name: "mergepath.tie_breaks_per_row", Unit: "count", Better: "lower"},
	{Name: "mergepath.dup_run_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "host.memcpy_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "host.slices_sort_s", Unit: "s", Better: "lower"},
	{Name: "host.slices_sort_ns_per_row", Unit: "ns", Better: "lower"},
}

// samples collects one metric's per-round values.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median is the middle sample, the mean of the two middle ones for an even
// count.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sorted := slices.Clone(vs)
	slices.Sort(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail sample.
const tailBeyond = 10

// tail returns the highest sample with at least tailBeyond samples beyond it
// and the percentile it stands for; with too few samples it is the median.
func tail(vs []float64) (v float64, percentile float64) {
	n := len(vs)
	if n < 2*tailBeyond+1 {
		return median(vs), 50
	}
	sorted := slices.Clone(vs)
	slices.Sort(sorted)
	i := n - 1 - tailBeyond
	return sorted[i], 100 * float64(i) / float64(n-1)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
