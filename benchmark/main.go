// Command benchmark is the repository's performance benchmark: five
// out-of-cache sorts driven through core.Sorter's public calls, end-to-end
// metrics from untraced rounds and per-layer metrics from a separate traced
// pass. README.md in this directory says what every number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

const (
	warmupRounds = 2
	// minRounds is the floor on timed rounds: below 21 no sample has ten
	// others beyond it but the median itself.
	minRounds  = 2*tailBeyond + 1
	setupReps  = 3
	replayReps = 3
	// tracedShare of --seconds goes to the traced pass's sorts; the kernel
	// replays take the rest.
	tracedShare     = 0.6
	minTracedRounds = 3
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	rounds   int
	trace    string // "0" end-to-end only, "1" per-layer only, "both"
	out      string
	traceOut string
	aa       bool
	// shift scales every row count down (rows >> shift); the self-test sets
	// it, no flag does.
	shift uint
}

func main() {
	cfg := config{}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "all", "workload `name`, or all")
	fs.Uint64Var(&cfg.seed, "seed", 42, "input generation seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measuring time per workload")
	fs.IntVar(&cfg.rounds, "rounds", 0, "timed rounds per pass, instead of -seconds")
	fs.StringVar(&cfg.trace, "trace", "0", "0: untraced rounds, end-to-end metrics; 1: traced pass, per-layer metrics; both")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report to this `file`")
	fs.StringVar(&cfg.traceOut, "trace-out", filepath.Join(os.TempDir(), "rowsort-bench-trace.json"),
		"write the traced pass's spans as Chrome trace_event JSON to this `file`")
	fs.BoolVar(&cfg.aa, "aa", false, "run the untraced suite twice and compare the two against the bounds")
	fs.Parse(os.Args[1:]) // ExitOnError
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// metricValue is one reported number. Min and Max are the per-round extremes
// of a per-layer metric (a counter that does not repeat shows here).
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

type workloadReport struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	// TimedSorts is the sample count behind the end-to-end medians;
	// TailPercentile the percentile sort_tail_vs_ref stands for at that count.
	TimedSorts     int                    `json:"timed_sorts,omitempty"`
	TailPercentile float64                `json:"tail_percentile,omitempty"`
	TracedSorts    int                    `json:"traced_sorts,omitempty"`
	EndToEnd       map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Errors         []string               `json:"errors,omitempty"`
}

func (w *workloadReport) count(res sortResult) {
	w.Attempted++
	if res.Err != nil {
		w.Failed++
		if len(w.Errors) < 8 {
			w.Errors = append(w.Errors, res.Err.Error())
		}
	}
}

type report struct {
	Seed       uint64           `json:"seed"`
	Threads    int              `json:"threads"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Note       string           `json:"note"`
	Workloads  []workloadReport `json:"workloads"`
}

// resultLine is the last line of standard output for a one-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const pageCacheNote = "closed loop, one sort at a time; spill files go through the OS page cache, which is left alone: these are sandbox timings, not device timings"

// run executes the configured passes, prints every metric as
// "workload metric value unit" and reports whether every sort verified.
func run(cfg config, stdout io.Writer) (ok bool, err error) {
	if cfg.trace != "0" && cfg.trace != "1" && cfg.trace != "both" {
		return false, fmt.Errorf("-trace must be 0, 1 or both, not %q", cfg.trace)
	}
	defs := workloads
	if cfg.workload != "all" {
		def, found := findWorkload(cfg.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		defs = []workloadDef{def}
	}
	base, err := os.MkdirTemp("", "rowsort-bench-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(base)

	untraced := cfg.trace != "1" || cfg.aa
	reps := 1
	if untraced {
		reps = setupReps
	}
	ps := make([]*prepared, len(defs))
	reports := make([]workloadReport, len(defs))
	var ref *hostRef
	for i, def := range defs {
		var setup []float64
		for r := 0; r < reps; r++ {
			t := time.Now()
			ref = newHostRef(cfg.seed, cfg.shift)
			if ps[i], err = prepare(def, cfg.seed, cfg.shift, base); err != nil {
				return false, err
			}
			setup = append(setup, time.Since(t).Seconds())
		}
		reports[i] = workloadReport{Name: def.Name, Rows: ps[i].rows}
		if untraced {
			reports[i].EndToEnd = map[string]metricValue{"setup_s": {Value: median(setup), Unit: "s"}}
		}
	}

	if cfg.aa {
		a, b := cloneReports(reports), cloneReports(reports)
		runUntraced(ps, ref, cfg, a)
		runUntraced(ps, ref, cfg, b)
		return printAA(stdout, a, b), nil
	}
	if untraced {
		runUntraced(ps, ref, cfg, reports)
	}
	if cfg.trace != "0" {
		tr := newTracer()
		for i, p := range ps {
			if err := runTraced(p, ref, cfg, tr, &reports[i]); err != nil {
				return false, err
			}
		}
		if err := writeFile(cfg.traceOut, tr.writeTrace); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "# trace_event JSON written to %s\n", cfg.traceOut)
	}

	rep := report{Seed: cfg.seed, Threads: benchThreads, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Note: pageCacheNote, Workloads: reports}
	fmt.Fprintf(stdout, "# %s\n", pageCacheNote)
	ok = true
	for _, w := range reports {
		printWorkload(stdout, w)
		ok = ok && w.Failed == 0
	}
	if cfg.out != "" {
		err := writeFile(cfg.out, func(w io.Writer) error {
			e := json.NewEncoder(w)
			e.SetIndent("", "  ")
			return e.Encode(rep)
		})
		if err != nil {
			return false, err
		}
	}
	if len(reports) == 1 {
		w := reports[0]
		line := resultLine{Correct: ok, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]metricValue{}}
		for _, set := range []map[string]metricValue{w.EndToEnd, w.PerLayer} {
			for name, v := range set {
				line.Metrics[name] = metricValue{Value: v.Value, Unit: v.Unit}
			}
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func cloneReports(rs []workloadReport) []workloadReport {
	out := make([]workloadReport, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].EndToEnd = map[string]metricValue{"setup_s": r.EndToEnd["setup_s"]}
	}
	return out
}

func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runUntraced runs warm-up and timed rounds with tracing off and fills in
// each workload's end-to-end metrics. A round sorts every workload once and
// runs the host reference kernel once; the starting point rotates so host
// drift spreads over all of them.
func runUntraced(ps []*prepared, ref *hostRef, cfg config, reports []workloadReport) {
	per := make([]samples, len(ps))
	for i := range per {
		per[i] = samples{}
	}
	items := len(ps) + 1
	budget := time.Duration(cfg.seconds * float64(len(ps)) * float64(time.Second))
	var started time.Time
	for round := 0; ; round++ {
		timed := round - warmupRounds
		if timed == 0 {
			started = time.Now()
		}
		if timed >= 0 {
			if cfg.rounds > 0 && timed >= cfg.rounds {
				break
			}
			if cfg.rounds == 0 && timed >= minRounds && time.Since(started) >= budget {
				break
			}
		}
		results := make([]sortResult, len(ps))
		var refSec float64
		for k := 0; k < items; k++ {
			if i := (round + k) % items; i < len(ps) {
				results[i] = runSort(ps[i], benchThreads, nil, "")
				reports[i].count(results[i])
			} else {
				refSec = ref.sliceSort().Seconds()
			}
		}
		if timed < 0 {
			continue
		}
		for i, res := range results {
			if res.Err != nil {
				continue
			}
			s := per[i]
			s.add("cost_vs_ref", ratio(res.Total.Seconds(), refSec))
			s.add("first_chunk_vs_ref", ratio(res.FirstChunk.Seconds(), refSec))
			s.add("peak_bytes", float64(res.Stats.PeakResidentRunBytes))
			s.add("alloc_bytes", float64(res.AllocBytes))
		}
	}
	for i, p := range ps {
		s := per[i]
		tailRatio, pct := tail(s["cost_vs_ref"])
		r := &reports[i]
		r.TimedSorts, r.TailPercentile = len(s["cost_vs_ref"]), pct
		values := map[string]float64{
			"sort_cost_vs_ref":    median(s["cost_vs_ref"]),
			"sort_tail_vs_ref":    tailRatio,
			"first_chunk_vs_ref":  median(s["first_chunk_vs_ref"]),
			"peak_resident_bytes": median(s["peak_bytes"]),
			"alloc_bytes_per_row": ratio(median(s["alloc_bytes"]), float64(p.rows)),
		}
		for _, m := range endToEnd {
			if v, ok := values[m.Name]; ok {
				r.EndToEnd[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
		}
	}
}

// runTraced is the separate traced pass for one workload: rounds of one
// untraced, one traced and one single-thread sort (in rotating order) and the
// host reference kernels, then the lower layers' kernels replayed on the
// workload's input. It fills in the workload's per-layer metrics.
func runTraced(p *prepared, ref *hostRef, cfg config, tr *tracer, r *workloadReport) error {
	s := samples{}
	src, dst := make([]byte, memcpyBytes>>cfg.shift), make([]byte, memcpyBytes>>cfg.shift)
	for i := range src {
		src[i] = byte(i)
	}
	const untraced, traced, oneThread = 0, 1, 2
	budget := time.Duration(tracedShare * cfg.seconds * float64(time.Second))
	var started time.Time
	// Round 0 is the warm-up.
	for round := 0; ; round++ {
		if round == 1 {
			started = time.Now()
		}
		if timed := round - 1; timed >= 0 {
			if cfg.rounds > 0 && timed >= cfg.rounds {
				break
			}
			if cfg.rounds == 0 && timed >= minTracedRounds && time.Since(started) >= budget {
				break
			}
		}
		var res [3]sortResult
		var spans []span
		failed := false
		for k := range res {
			arm := (round + k) % len(res)
			switch arm {
			case untraced:
				res[arm] = runSort(p, benchThreads, nil, "")
			case traced:
				mark := tr.mark()
				res[arm] = runSort(p, benchThreads, tr, fmt.Sprintf("%s/%d", p.def.Name, round))
				spans = tr.since(mark)
			case oneThread:
				res[arm] = runSort(p, 1, nil, "")
			}
			r.count(res[arm])
			failed = failed || res[arm].Err != nil
		}
		if round == 0 || failed {
			continue
		}
		spanMetrics(spans, s)
		statMetrics(res[traced].Stats, s)
		base := res[untraced].Total.Seconds()
		s.add("core.sort_rows_per_s", ratio(float64(p.rows), base))
		s.add("core.first_chunk_s", res[untraced].FirstChunk.Seconds())
		s.add("core.allocs_per_sort", float64(res[untraced].Mallocs))
		// Ratios are taken within the round, so host drift cancels.
		s.add("obs.trace_overhead_ratio", ratio(res[traced].Total.Seconds(), base))
		s.add("core.speedup_2t_over_1t", ratio(res[oneThread].Total.Seconds(), base))
		sortS := ref.sliceSort().Seconds()
		s.add("host.slices_sort_s", sortS)
		s.add("host.slices_sort_ns_per_row", ratio(sortS*1e9, float64(len(ref.ints))))
		s.add("host.memcpy_gb_per_s", memcpyGBPerS(dst, src))
	}
	for rep := 0; rep < replayReps; rep++ {
		if err := replayKernels(p, s); err != nil {
			return fmt.Errorf("%s: kernel replay: %w", p.def.Name, err)
		}
	}
	r.TracedSorts = len(s["obs.trace_overhead_ratio"])
	r.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		vs := s[m.Name]
		if len(vs) == 0 {
			// Every round had a failed sort; the failure count says so.
			continue
		}
		lo, hi := slices.Min(vs), slices.Max(vs)
		r.PerLayer[m.Name] = metricValue{Value: median(vs), Unit: m.Unit, Min: &lo, Max: &hi}
	}
	return nil
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printWorkload prints one line per metric: workload, metric, value, unit;
// per-layer lines add the per-round minimum and maximum.
func printWorkload(w io.Writer, r workloadReport) {
	if r.EndToEnd != nil {
		fmt.Fprintf(w, "# %s: %d rows, %d timed sorts; sort_tail_vs_ref is p%.0f, the highest sample with %d beyond it\n",
			r.Name, r.Rows, r.TimedSorts, r.TailPercentile, min(tailBeyond, r.TimedSorts/2))
		for _, m := range endToEnd {
			if v, ok := r.EndToEnd[m.Name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", r.Name, m.Name, formatValue(v.Value), v.Unit)
			}
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, "# %s: per-layer medians over %d traced sorts and %d kernel replays, then min and max\n",
			r.Name, r.TracedSorts, replayReps)
		for _, m := range perLayer {
			if v, ok := r.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "%s %s %s %s %s %s\n", r.Name, m.Name, formatValue(v.Value), v.Unit,
					formatValue(*v.Min), formatValue(*v.Max))
			}
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# %s: FAILED: %s\n", r.Name, e)
	}
	fmt.Fprintf(w, "# %s: %d sorts attempted, %d failed\n", r.Name, r.Attempted, r.Failed)
}

// printAA prints two untraced sets of the same code side by side: both
// values, their relative difference and whether it is within the metric's
// bound. It reports whether every pair is, and every sort verified.
func printAA(w io.Writer, a, b []workloadReport) bool {
	ok := true
	fmt.Fprintln(w, "# workload metric A B rel_diff bound verdict")
	for i := range a {
		for _, m := range endToEnd {
			va, vb := a[i].EndToEnd[m.Name].Value, b[i].EndToEnd[m.Name].Value
			diff := math.Abs(ratio(vb-va, va))
			verdict := "pass"
			if diff > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%s %s %s %s %.4f %.2f %s\n", a[i].Name, m.Name, formatValue(va), formatValue(vb), diff, m.Bound, verdict)
		}
		failed := a[i].Failed + b[i].Failed
		fmt.Fprintf(w, "# %s: %d sorts attempted, %d failed\n", a[i].Name, a[i].Attempted+b[i].Attempted, failed)
		ok = ok && failed == 0
	}
	return ok
}
