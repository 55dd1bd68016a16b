// Command sortbench regenerates the tables and figures of "These Rows Are
// Made for Sorting and That's Just What We'll Do" (ICDE 2023).
//
// Usage:
//
//	sortbench -list
//	sortbench -exp fig9
//	sortbench -exp all -scale paper -threads 16
//	sortbench -exp fig12 -cpuprofile cpu.out -memprofile mem.out
//	sortbench -exp phases -trace trace.json -metrics -
//
// Each experiment prints the paper-style rows or relative-runtime grids to
// stdout. The -scale flag trades fidelity for runtime: "tiny" finishes in
// seconds, "small" (the default) in a few minutes, and "paper" uses the
// paper's input sizes where memory allows. The -cpuprofile and -memprofile
// flags write pprof profiles for `go tool pprof`, so hot-path work (run
// generation, merge, the gather kernels) is directly measurable.
//
// The -trace flag records phase spans of every instrumented sort and writes
// them as Chrome trace_event JSON — open the file in chrome://tracing or
// https://ui.perfetto.dev to see run generation, spill, merge and gather
// workers on a timeline. The -metrics flag dumps the same run's counters in
// Prometheus text format to a file ("-" for stderr), and -phases appends a
// per-phase span table to experiments that sort end to end.
//
// The -mem flag budgets the experiments' sorts (bytes): over-budget sorts
// degrade by adaptively spilling instead of growing, and the "memory"
// experiment reports that single budget instead of its default sweep of
// 1/2, 1/4 and 1/8 of the measured unlimited peak.
//
// The -serve flag mounts the live observability plane on an HTTP listener:
// /debug/rowsort/ is an HTML index of every sort in flight (per-phase
// progress, ETA, memory pressure, a phase waterfall), /debug/rowsort/run?id=
// the JSON snapshot of one run, /debug/rowsort/trace?id= its Chrome trace
// once finished, and /metrics the Prometheus exposition. With -exp the
// experiments' sorts appear there as they run (the server stays up after
// the experiment until interrupted); without -exp, sortbench loops a
// budgeted forced-spill demo sort until interrupted so there is always
// something live to look at:
//
//	sortbench -serve :6060
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"rowsort/internal/bench"
	"rowsort/internal/core"
	"rowsort/internal/obs"
	"rowsort/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "", "experiment id to run (see -list), or \"all\"")
		scale      = flag.String("scale", "small", "input scale: tiny, small or paper")
		threads    = flag.Int("threads", 0, "thread budget for parallel experiments (0 = GOMAXPROCS)")
		reps       = flag.Int("reps", 0, "repetitions per measurement, median reported (0 = scale default)")
		seed       = flag.Uint64("seed", 42, "workload generation seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
		metrics    = flag.String("metrics", "", "write Prometheus-text phase metrics to this file (\"-\" = stderr)")
		phases     = flag.Bool("phases", false, "print per-phase span tables after end-to-end experiments")
		memLimit   = flag.Int64("mem", 0, "memory budget in bytes for the experiments' sorts (0 = unlimited; the \"memory\" experiment measures this single budget instead of its sweep)")
		serve      = flag.String("serve", "", "serve the live observability plane (/debug/rowsort/, /metrics) on this address, e.g. :6060; without -exp, loops a forced-spill demo sort until interrupted")
	)
	flag.Parse()

	if *list || (*exp == "" && *serve == "") {
		fmt.Println("experiments:")
		for _, e := range bench.Registry() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		fmt.Printf("  %-10s %s\n", "all", "run every experiment in order")
		if !*list {
			return 2
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: creating CPU profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: starting CPU profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "sortbench: closing CPU profile: %v\n", err)
			}
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: creating heap profile: %v\n", err)
			return
		}
		runtime.GC() // up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: writing heap profile: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: closing heap profile: %v\n", err)
		}
	}()

	cfg := bench.Config{
		Scale:          bench.Scale(*scale),
		Threads:        *threads,
		Reps:           *reps,
		Seed:           *seed,
		MemoryLimit:    *memLimit,
		PhaseBreakdown: *phases,
	}
	if *traceFile != "" || *metrics != "" {
		cfg.Telemetry = obs.NewRecorder()
	}

	ctx := context.Background()
	var reg *obs.Registry
	if *serve != "" {
		reg = obs.NewRegistry(obs.DefaultKeepDone)
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: -serve: %v\n", err)
			return 1
		}
		srv := &http.Server{Handler: reg.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sortbench: serving http://%s/debug/rowsort/ and /metrics (interrupt to stop)\n", ln.Addr())
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	if *exp == "" {
		// Serve-only mode: keep a forced-spill sort in flight so the
		// endpoints always have a live run to show.
		if err := demoLoop(ctx, cfg, reg); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
			return 1
		}
		return 0
	}

	var err error
	if *exp == "all" {
		err = bench.RunAll(os.Stdout, cfg)
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "sortbench: unknown experiment %q (use -list)\n", *exp)
			return 2
		}
		fmt.Printf("=== %s: %s ===\n\n", e.ID, e.Title)
		err = e.Run(os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
		return 1
	}
	if *serve != "" {
		fmt.Fprintf(os.Stderr, "sortbench: experiment done; still serving completed-run snapshots (interrupt to exit)\n")
		<-ctx.Done()
	}

	if *traceFile != "" {
		if err := writeFile(*traceFile, cfg.Telemetry.WriteTrace); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: writing trace: %v\n", err)
			return 1
		}
	}
	if *metrics != "" {
		if err := writeFile(*metrics, cfg.Telemetry.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: writing metrics: %v\n", err)
			return 1
		}
	}
	return 0
}

// demoLoop sorts a budgeted TPC-DS catalog_sales workload over and over
// until ctx is cancelled, every run watched by reg. The budget forces
// pressure-driven spilling and a multi-pass external merge, so the served
// endpoints show every phase and counter moving.
func demoLoop(ctx context.Context, cfg bench.Config, reg *obs.Registry) error {
	n := 1 << 20
	switch cfg.Scale {
	case bench.ScaleTiny:
		n = 1 << 14
	case bench.ScalePaper:
		n = 1 << 22
	}
	limit := cfg.MemoryLimit
	if limit <= 0 {
		limit = int64(n) * 8
	}
	tbl := workload.CatalogSales(n, 10, cfg.Seed)
	keys := []core.SortColumn{{Column: 0}, {Column: 1}, {Column: 2}}
	for i := 1; ctx.Err() == nil; i++ {
		opt := core.Options{
			Threads:     cfg.Threads,
			MemoryLimit: limit,
			Telemetry:   reg.Recorder(fmt.Sprintf("demo-%d", i)), // per-run recorder: each run gets its own waterfall and trace
		}
		if _, _, err := core.SortTableStats(tbl, keys, opt); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Second):
		}
	}
	return nil
}

// writeFile writes what emit produces to path; "-" is stderr.
func writeFile(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
