// Package bench is the harness that regenerates the paper's tables and
// figures: deterministic median-of-N timing, paper-style grid and table
// formatting, and one experiment function per table/figure (experiments.go).
// Both cmd/sortbench and the repository's testing.B benchmarks drive it.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// MedianTime runs f reps times and returns the median wall-clock duration,
// matching the paper's "repeat five times, report the median" protocol.
func MedianTime(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2]
}

// InterleavedRounds times competing functions with their repetitions
// interleaved instead of run as per-function blocks, so slow drift in
// background load biases every arm equally rather than whichever arm
// happened to run during a noisy stretch. The starting arm rotates each
// round, so every arm also follows every other arm equally often — a fixed
// round-robin order would hand whichever arm runs after the slowest one a
// systematic thermal/turbo penalty. It returns times[fn][round], so callers
// comparing arms can form per-round (paired) ratios, which cancel whatever
// drift remains within a round; use it for ablations whose verdict is a
// ratio between arms. prep runs, untimed, before every timed call: arms that
// consume their input get a fresh one.
func InterleavedRounds(reps int, prep func(), fns []func()) [][]time.Duration {
	if reps < 1 {
		reps = 1
	}
	times := make([][]time.Duration, len(fns))
	for i := range times {
		times[i] = make([]time.Duration, reps)
	}
	for r := 0; r < reps; r++ {
		for k := range fns {
			i := (r + k) % len(fns)
			prep()
			start := time.Now()
			fns[i]()
			times[i][r] = time.Since(start)
		}
	}
	return times
}

// MedianDuration returns the median of ts without reordering it.
func MedianDuration(ts []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ts...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// Table renders an aligned ASCII table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Ratio formats base/x as the paper's relative runtime: values above 1 mean
// x is faster than the baseline.
func Ratio(base, x time.Duration) string {
	if x <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(base)/float64(x))
}

// Seconds formats a duration as seconds with millisecond resolution.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// Count formats large counts with thousands separators.
func Count(n uint64) string {
	s := fmt.Sprintf("%d", n)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}

// Bytes formats a byte count in binary units.
func Bytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// MedianTimePrep is MedianTime for workloads that consume their input:
// prep builds a fresh input outside the timed section, run is timed.
func MedianTimePrep[T any](reps int, prep func() T, run func(T)) time.Duration {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, reps)
	for i := range times {
		in := prep()
		start := time.Now()
		run(in)
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2]
}
