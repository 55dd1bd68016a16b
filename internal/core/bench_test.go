package core

import (
	"fmt"
	"testing"

	"rowsort/internal/obs"
	"rowsort/internal/workload"
)

func BenchmarkSortTableIntegerKeys(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		cols := workload.Dist{Random: true}.Generate(n, 2, 1)
		tbl := workload.UintColumnsTable(cols)
		keys := []SortColumn{{Column: 0}, {Column: 1}}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SortTable(tbl, keys, Options{Threads: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSortTableStringKeys(b *testing.B) {
	tbl := workload.Customer(1<<15, 2)
	keys := []SortColumn{{Column: 4}, {Column: 5}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SortTable(tbl, keys, Options{Threads: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOverhead measures what the telemetry layer costs on a
// 1M-row multi-key sort: "disabled" is the nil-recorder fast path every
// untraced sort takes, "enabled" records full phase spans into a fresh
// Recorder per iteration, and "registry" additionally registers every sort
// with a live observability registry (progress counters are published
// either way; the registry adds registration, fingerprinting and the
// Close-time final-stats capture). EXPERIMENTS.md documents the budget
// (<2%).
func BenchmarkTelemetryOverhead(b *testing.B) {
	const rows = 1 << 20
	cols := workload.Dist{Random: true}.Generate(rows, 2, 11)
	tbl := workload.UintColumnsTable(cols)
	keys := []SortColumn{{Column: 0}, {Column: 1}}
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SortTable(tbl, keys, Options{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := SortTableStats(tbl, keys, Options{Threads: 4, Telemetry: obs.NewRecorder()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("registry", func(b *testing.B) {
		reg := obs.NewRegistry(4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := SortTableStats(tbl, keys, Options{Threads: 4, Telemetry: reg.Recorder("bench")}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSpillOverhead(b *testing.B) {
	tbl := workload.Customer(1<<15, 7)
	keys := []SortColumn{{Column: 1}, {Column: 2}}
	b.Run("in-memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SortTable(tbl, keys, Options{RunSize: 8 << 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spill", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SortTable(tbl, keys, Options{RunSize: 8 << 10, SpillDir: dir}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
