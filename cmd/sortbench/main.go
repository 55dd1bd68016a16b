// Command sortbench regenerates the tables and figures of "These Rows Are
// Made for Sorting and That's Just What We'll Do" (ICDE 2023).
//
// Usage:
//
//	sortbench -list
//	sortbench -exp fig9
//	sortbench -exp all -scale paper -threads 16
//	sortbench -exp fig12 -cpuprofile cpu.out -memprofile mem.out
//
// Each experiment prints the paper-style rows or relative-runtime grids to
// stdout. The -scale flag trades fidelity for runtime: "tiny" finishes in
// seconds, "small" (the default) in a few minutes, and "paper" uses the
// paper's input sizes where memory allows. The -cpuprofile and -memprofile
// flags write pprof profiles for `go tool pprof`, so hot-path work (run
// generation, merge, the gather kernels) is directly measurable. To trace
// or export the counters of one sort, use csvsort's -trace and -metrics; to
// watch one live, csvsort's -serve.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rowsort/internal/bench"
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
	)
	flag.Parse()

	if *list || *exp == "" {
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
		Scale:   bench.Scale(*scale),
		Threads: *threads,
		Reps:    *reps,
		Seed:    *seed,
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
	return 0
}
