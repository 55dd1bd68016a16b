package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"rowsort/internal/core"
	"rowsort/internal/normkey"
	"rowsort/internal/radix"
	"rowsort/internal/sortalgo"
	"rowsort/internal/strategy"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

func init() {
	register("adaptive", "Run-sort planner: the four kernels on five shapes, the sampled pick and its regret",
		runAdaptive)
}

// runAdaptive times the four run-sort kernels directly on the encoded key
// rows of workload shapes where the best one differs — nearly sorted, an
// adversarial sawtooth (locally sorted, globally shuffled: the planner must
// NOT read it as presorted), uniform integers, a wide four-column key, and
// duplicate-heavy runs — each shape one run, as a sink would cut it. Beside
// them it reports which kernel the strategy planner's sample of the run picks;
// the pick's regret is its time over the best kernel's. The planner's job
// is a regret near 1 on every shape; a fixed rule is one row of each table,
// and how far that row is from the best is what the plan is for.
func runAdaptive(w io.Writer, cfg Config) error {
	if err := cfg.valid(); err != nil {
		return err
	}
	n := cfg.counterRows()
	seed := cfg.seed()
	col0 := []core.SortColumn{{Column: 0}}
	wide := workload.UintColumnsTable(workload.Dist{Random: true}.Generate(n, 4, seed))
	for _, wl := range []struct {
		name string
		tbl  *vector.Table
		keys []core.SortColumn
	}{
		{"nearly sorted int64, 0.1% disorder", workload.NearlySorted(n, 0.001, seed), col0},
		{"sawtooth ramps, period 1024", workload.SawtoothRuns(n, 1024, seed), col0},
		{"uniform int64", workload.UniformInt64s(n, seed), col0},
		{"wide 4-column key", wide, []core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}, {Column: 3}}},
		{"duplicate-run integers, 500 distinct", workload.DupHeavyInts(n, 500, seed), col0},
	} {
		rows, rw, kw, err := encodeKeyRows(wl.tbl, wl.keys)
		if err != nil {
			return err
		}
		// The key's segment offsets feed sketches no choice reads: left out.
		plan := strategy.NewPlanner(strategy.Config{RowWidth: rw, KeyWidth: kw, AllowDupGroup: true}).PlanRun(rows, n)

		work, scratch, expanded := make([]byte, len(rows)), make([]byte, len(rows)), make([]byte, len(rows))
		// In strategy.Algo order, so that a plan's Algo indexes its kernel.
		kernels := []func(){
			func() { radix.SortOpts(work, rw, kw, radix.Options{ForceLSD: true, Scratch: scratch}) },
			func() { radix.SortOpts(work, rw, kw, radix.Options{ForceMSD: true, Scratch: scratch}) },
			func() {
				r := sortalgo.NewRows(work, rw)
				r.Compare = func(a, b []byte) int { return bytes.Compare(a[:kw], b[:kw]) }
				r.Pdqsort()
			},
			// As the sorter runs it: grouped when adjacent groups average two
			// rows, plain radix when the collector declines.
			func() {
				if reps, _, ok := sortalgo.CollectDupGroupsMin(work, rw, kw, 2); ok {
					radix.SortOpts(reps, kw+sortalgo.GroupTagBytes, kw, radix.Options{Scratch: scratch})
					sortalgo.ExpandDupGroups(expanded, work, rw, reps, kw)
				} else {
					radix.SortOpts(work, rw, kw, radix.Options{Scratch: scratch})
				}
			},
		}
		rounds := InterleavedRounds(cfg.reps(), func() { copy(work, rows) }, kernels)
		best := 0
		for k := range kernels {
			if MedianDuration(rounds[k]) < MedianDuration(rounds[best]) {
				best = k
			}
		}
		t := &Table{
			Title: fmt.Sprintf("%s (%s rows, %d key bytes): the planner picks %s, its regret that row's vs best",
				wl.name, Count(uint64(n)), kw, plan.Algo),
			Header: []string{"kernel", "time", "ns/row", "vs best"},
		}
		for k := range kernels {
			// The median of per-round paired ratios: within one round the
			// kernels run back to back, so drift divides out.
			ratios := make([]float64, len(rounds[k]))
			for r := range ratios {
				ratios[r] = float64(rounds[k][r]) / float64(rounds[best][r])
			}
			sort.Float64s(ratios)
			med := MedianDuration(rounds[k])
			t.AddRow(strategy.Algo(k).String(), Seconds(med),
				fmt.Sprintf("%.1f", float64(med.Nanoseconds())/float64(n)),
				fmt.Sprintf("%.2f", ratios[len(ratios)/2]))
		}
		t.Render(w)
	}
	return nil
}

// encodeKeyRows encodes tbl's sort keys as normalized key rows at the sorter's
// key-row stride (key bytes, then room for the payload reference): what a sink
// hands its run sort.
func encodeKeyRows(tbl *vector.Table, keys []core.SortColumn) (rows []byte, rw, kw int, err error) {
	nkeys := make([]normkey.SortKey, len(keys))
	for i, k := range keys {
		nkeys[i] = normkey.SortKey{Column: k.Column, Type: tbl.Schema[k.Column].Type}
	}
	enc, err := normkey.NewEncoder(nkeys)
	if err != nil {
		return nil, 0, 0, err
	}
	kw = enc.Width()
	rw = (kw + 8 + 7) &^ 7
	rows = make([]byte, tbl.NumRows()*rw)
	keyCols := make([]*vector.Vector, len(nkeys))
	off := 0
	for _, c := range tbl.Chunks {
		for i, k := range nkeys {
			keyCols[i] = c.Vectors[k.Column]
		}
		if _, err := enc.EncodeChunk(keyCols, rows[off:], rw, 0); err != nil {
			return nil, 0, 0, err
		}
		off += c.Len() * rw
	}
	return rows, rw, kw, nil
}
