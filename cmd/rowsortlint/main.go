// Command rowsortlint runs the module's static-analysis suite: the
// analyzers under internal/analysis/analyzers, which machine-check the
// sort pipeline's un-typeable invariants (byte-comparable key encodings,
// pure comparators, allocation-free hot loops, atomic stats access, and the
// concurrency lifecycle of pipeline goroutines). See DESIGN.md's "Static analysis" section for what each
// analyzer enforces and how to suppress a finding with //rowsort:allow.
//
// Usage:
//
//	rowsortlint [-C dir] [-json] [-only names] [packages]
//	rowsortlint -list
//	rowsortlint [-C dir] -suppressions [packages]
//	rowsortlint [-C dir] -budget file [packages]
//
// Packages default to ./... relative to -C (default: the current
// directory). Exit code 0 means no findings, 1 means findings (or a grown
// suppression budget), 2 means the load itself failed.
//
// -suppressions prints the justified //rowsort:allow counts per analyzer
// as JSON. -budget compares those counts against a committed baseline
// file: any analyzer exceeding its budgeted count fails, so suppressions
// can be spent down but never accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rowsort/internal/analysis"
	"rowsort/internal/analysis/analyzers"
)

// suite is every analyzer rowsortlint knows, in reporting order.
var suite = analyzers.Suite

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the golden CLI test can
// drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rowsortlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "run as if launched from this directory")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	suppressions := fs.Bool("suppressions", false, "print justified //rowsort:allow counts per analyzer as JSON and exit")
	budget := fs.String("budget", "", "compare suppression counts against this baseline file; fail on growth")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(stderr, "rowsortlint: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	u, err := analysis.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "rowsortlint: %v\n", err)
		return 2
	}

	if *suppressions {
		return writeSuppressions(stdout, stderr, u)
	}
	if *budget != "" {
		return checkBudget(stdout, stderr, u, *budget)
	}

	diags := analysis.Run(u, selected)
	if *jsonOut {
		err = analysis.WriteJSON(stdout, diags)
	} else {
		err = analysis.WriteText(stdout, diags)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rowsortlint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only flag against the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// writeSuppressions prints the per-analyzer justified suppression counts as
// deterministic JSON (sorted keys, the budget file's format).
func writeSuppressions(stdout, stderr io.Writer, u *analysis.Universe) int {
	if err := writeCounts(stdout, u.SuppressionCounts()); err != nil {
		fmt.Fprintf(stderr, "rowsortlint: %v\n", err)
		return 2
	}
	return 0
}

// checkBudget enforces the suppression ratchet: current counts may not
// exceed the committed baseline for any analyzer. Spending down is
// reported so the baseline can be tightened.
func checkBudget(stdout, stderr io.Writer, u *analysis.Universe, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "rowsortlint: reading budget: %v\n", err)
		return 2
	}
	budget := make(map[string]int)
	if err := json.Unmarshal(data, &budget); err != nil {
		fmt.Fprintf(stderr, "rowsortlint: parsing budget %s: %v\n", path, err)
		return 2
	}
	counts := u.SuppressionCounts()

	names := make(map[string]bool)
	for name := range budget {
		names[name] = true
	}
	for name := range counts {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	grew := false
	for _, name := range sorted {
		have, want := counts[name], budget[name]
		switch {
		case have > want:
			grew = true
			fmt.Fprintf(stdout, "budget exceeded: %s has %d suppressions, budget is %d — fix the finding or justify raising the budget\n", name, have, want)
		case have < want:
			fmt.Fprintf(stdout, "budget slack: %s has %d suppressions, budget is %d — ratchet %s down in %s\n", name, have, want, name, path)
		}
	}
	if grew {
		return 1
	}
	return 0
}

// writeCounts emits a counts map as stable, human-diffable JSON.
func writeCounts(w io.Writer, counts map[string]int) error {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ","
		if i == len(names)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "  %q: %d%s\n", name, counts[name], sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
