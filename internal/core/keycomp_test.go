package core

import (
	"fmt"
	"strings"
	"testing"

	"rowsort/internal/obs"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// tablesEqual asserts a and b hold identical rows in identical order. The
// keycomp workloads make payloads deterministic functions of the key
// columns, so even where the sort order leaves equal keys unordered the
// interchangeable rows are bytewise identical and this comparison is exact.
func tablesEqual(t *testing.T, want, got *vector.Table, ctx string) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: got %d rows, want %d", ctx, got.NumRows(), want.NumRows())
	}
	for c := range want.Schema {
		wc, gc := want.Column(c), got.Column(c)
		for i := 0; i < want.NumRows(); i++ {
			if wv, gv := wc.Value(i), gc.Value(i); wv != gv {
				t.Fatalf("%s: row %d col %d: got %v, want %v", ctx, i, c, gv, wv)
			}
		}
	}
}

// TestKeyCompEquivalence is the compressed-key acceptance grid: for every
// workload shape the encodings target (low-cardinality strings, duplicate
// -heavy integers, shared prefixes, uniform high-cardinality, NULL-bearing
// multi-key, collated names), each compression arm must produce output
// byte-identical to the uncompressed sort across thread counts and a
// forced-spill configuration.
func TestKeyCompEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		tbl  *vector.Table
		keys []SortColumn
	}{
		{"low-card-strings", workload.LowCardStrings(8_000, 40, 91),
			[]SortColumn{{Column: 0}}},
		{"low-card-strings-desc", workload.LowCardStrings(8_000, 300, 191),
			[]SortColumn{{Column: 0, Descending: true, NullsLast: true}}},
		{"dup-heavy-ints", workload.DupHeavyInts(10_000, 50, 92),
			[]SortColumn{{Column: 0}}},
		{"dup-heavy-ints-desc", workload.DupHeavyInts(10_000, 500, 192),
			[]SortColumn{{Column: 0, Descending: true}}},
		{"shared-prefix", workload.SharedPrefixStrings(8_000, 93),
			[]SortColumn{{Column: 0}}},
		{"uniform-int64", workload.UniformInt64s(6_000, 94),
			[]SortColumn{{Column: 0}}},
		// All five columns sort, so NULL-tied rows are fully identical and
		// interchangeable; FK columns carry NULLs.
		{"catalog-sales-nulls", workload.CatalogSales(8_000, 10, 95),
			[]SortColumn{{Column: 0, NullsLast: true}, {Column: 1, Descending: true},
				{Column: 2}, {Column: 3, Descending: true, NullsLast: true}, {Column: 4}}},
		// Skewed name pools with a unique tiebreaker key: dictionary-friendly
		// strings under case-insensitive collation, total order guaranteed.
		{"customer-names", workload.Customer(6_000, 96),
			[]SortColumn{{Column: 4, CaseInsensitive: true}, {Column: 5}, {Column: 0}}},
	}
	arms := []struct {
		name string
		kc   KeyComp
	}{
		{"dict", KeyCompDict},
		{"trunc", KeyCompTrunc},
		{"all", KeyCompAll},
	}
	for _, w := range workloads {
		for _, cfg := range []struct {
			name    string
			threads int
			spill   bool
		}{
			{"t1", 1, false},
			{"t4", 4, false},
			{"t4-spill", 4, true},
		} {
			opt := Options{Threads: cfg.threads, RunSize: 1_000}
			if cfg.spill {
				opt.SpillDir = t.TempDir()
			}
			base, err := SortTable(w.tbl, w.keys, opt)
			if err != nil {
				t.Fatalf("%s/%s baseline: %v", w.name, cfg.name, err)
			}
			checkSorted(t, w.tbl, base, w.keys, w.name+"/"+cfg.name+" baseline")
			for _, arm := range arms {
				armOpt := opt
				armOpt.KeyComp = arm.kc
				if cfg.spill {
					armOpt.SpillDir = t.TempDir()
				}
				got, err := SortTable(w.tbl, w.keys, armOpt)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.name, cfg.name, arm.name, err)
				}
				tablesEqual(t, base, got, fmt.Sprintf("%s/%s/%s", w.name, cfg.name, arm.name))
			}
		}
	}
}

// TestKeyCompStatsDict asserts the dictionary plan engages on
// low-cardinality strings and shrinks the physical key volume.
func TestKeyCompStatsDict(t *testing.T) {
	tbl := workload.LowCardStrings(8_000, 40, 31)
	keys := []SortColumn{{Column: 0}}
	_, st, err := SortTableStats(tbl, keys, Options{Threads: 2, RunSize: 1_000, KeyComp: KeyCompDict})
	if err != nil {
		t.Fatal(err)
	}
	if st.PhysKeyBytes >= st.NormKeyBytes {
		t.Fatalf("dict: physical key bytes %d not below logical %d", st.PhysKeyBytes, st.NormKeyBytes)
	}
	if len(st.KeyEncodings) != 1 {
		t.Fatalf("dict: KeyEncodings = %v, want one entry", st.KeyEncodings)
	}
	ke := st.KeyEncodings[0]
	if !strings.Contains(ke.Encoding, "dict") {
		t.Fatalf("dict: column encoding = %q, want dictionary", ke.Encoding)
	}
	if ke.Width >= ke.FullWidth {
		t.Fatalf("dict: segment width %d not below full width %d", ke.Width, ke.FullWidth)
	}
}

// TestKeyCompStatsDictEscapes asserts out-of-sample values are counted: a
// plan built from an unrepresentative sample must escape the rest.
func TestKeyCompStatsDictEscapes(t *testing.T) {
	tbl := workload.LowCardStrings(6_000, 256, 33)
	keys := []SortColumn{{Column: 0}}
	s, err := NewSorter(tbl.Schema, keys, Options{Threads: 2, RunSize: 1_000, KeyComp: KeyCompDict})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Plan from a sample drawn from a quarter of the value pool: the other
	// three quarters stay out of the dictionary and must take escape codes.
	sample := workload.LowCardStrings(2_000, 64, 133)
	if err := s.PlanCompression(sample.Chunks); err != nil {
		t.Fatal(err)
	}
	sink := s.NewSink()
	for _, c := range tbl.Chunks {
		if err := sink.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, tbl, got, keys, "escape-heavy dict sort")
	if st := s.Stats(); st.Counters[obs.KeyEscapes] == 0 {
		t.Fatal("narrow sample produced no dictionary escapes")
	}
}

// TestKeyCompStatsRLE asserts duplicate-run group sorting ("rle group sort"
// in the stats) engages on duplicate-heavy integers with no option asking for
// it: the planner's sample of each run does.
func TestKeyCompStatsRLE(t *testing.T) {
	tbl := workload.DupHeavyInts(12_000, 50, 32)
	keys := []SortColumn{{Column: 0}}
	_, st, err := SortTableStats(tbl, keys, Options{Threads: 2, RunSize: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Counters[obs.DupGroupRuns] == 0 {
		t.Fatal("rle: no runs were group-sorted on a 50-distinct-key workload")
	}
	if st.Counters[obs.DupGroupRows] == 0 {
		t.Fatal("rle: group sorting reported zero grouped duplicate rows")
	}
}

// TestKeyCompStatsTrunc asserts prefix truncation engages on shared-prefix
// strings and that the lossy runs go through the tie-repair path.
func TestKeyCompStatsTrunc(t *testing.T) {
	tbl := workload.SharedPrefixStrings(8_000, 34)
	keys := []SortColumn{{Column: 0}}
	_, st, err := SortTableStats(tbl, keys, Options{Threads: 2, RunSize: 1_000, KeyComp: KeyCompTrunc})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.KeyEncodings) != 1 || !strings.Contains(st.KeyEncodings[0].Encoding, "trunc") {
		t.Fatalf("trunc: KeyEncodings = %v, want a truncated column", st.KeyEncodings)
	}
}

// TestPlanCompressionOrdering pins the contract that compression planning
// happens before ingestion, and that disabled compression is a no-op.
func TestPlanCompressionOrdering(t *testing.T) {
	tbl := workload.LowCardStrings(2_000, 10, 35)
	keys := []SortColumn{{Column: 0}}

	s, err := NewSorter(tbl.Schema, keys, Options{KeyComp: KeyCompDict})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.NewSink().Append(tbl.Chunks[0]); err != nil {
		t.Fatal(err)
	}
	err = s.PlanCompression(tbl.Chunks)
	if err == nil || !strings.Contains(err.Error(), "before ingestion") {
		t.Fatalf("PlanCompression after Append: err = %v, want ordering error", err)
	}

	// With compression disabled the call is a declared no-op even
	// mid-ingestion.
	s2, err := NewSorter(tbl.Schema, keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.NewSink().Append(tbl.Chunks[0]); err != nil {
		t.Fatal(err)
	}
	if err := s2.PlanCompression(tbl.Chunks); err != nil {
		t.Fatalf("disabled PlanCompression: %v", err)
	}
}

// TestKeyCompOptionValidation pins the Options.KeyComp bit check: two bits
// exist, and the third, which once asked for duplicate-run grouping, is as
// unknown as any other.
func TestKeyCompOptionValidation(t *testing.T) {
	tbl := workload.UniformInt64s(100, 36)
	keys := []SortColumn{{Column: 0}}
	for _, kc := range []KeyComp{0x80, 1 << 2, KeyCompAll | 1<<2} {
		if _, err := SortTable(tbl, keys, Options{KeyComp: kc}); err == nil {
			t.Fatalf("KeyComp %#x has unknown bits and should fail validation", uint8(kc))
		}
	}
}
