package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runLint drives run() in-process against the lintmod fixture module.
func runLint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, out, errOut := runLint(t, "-C", "testdata/lintmod", "./clean/...")
	if code != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if out != "" {
		t.Fatalf("clean run must print nothing, got %q", out)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, out, _ := runLint(t, "-C", "testdata/lintmod", "./...")
	if code != 1 {
		t.Fatalf("findings must exit 1, got %d (stdout %q)", code, out)
	}
	if !strings.Contains(out, "chanbug.go") || !strings.Contains(out, "chanclose") {
		t.Fatalf("text output must name file and analyzer, got %q", out)
	}
}

func TestJSONShape(t *testing.T) {
	code, out, _ := runLint(t, "-C", "testdata/lintmod", "-json", "./...")
	if code != 1 {
		t.Fatalf("findings must exit 1, got %d", code)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output must be a diagnostic array: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("expected at least one diagnostic")
	}
	for _, d := range diags {
		if d.Analyzer != "chanclose" {
			t.Fatalf("unexpected analyzer %q in %+v", d.Analyzer, d)
		}
		if d.Message == "" || d.File == "" || d.Line == 0 || d.Col == 0 {
			t.Fatalf("incomplete diagnostic %+v", d)
		}
		if filepath.Base(d.File) != "chanbug.go" {
			t.Fatalf("finding in unexpected file %q", d.File)
		}
	}
}

func TestOnlyFilters(t *testing.T) {
	// The fixture's only finding is chanclose's; filtering to another
	// analyzer must come back clean.
	code, out, _ := runLint(t, "-C", "testdata/lintmod", "-only", "hotpathalloc", "./...")
	if code != 0 || out != "" {
		t.Fatalf("filtered run must be clean, got exit %d stdout %q", code, out)
	}
	code, _, _ = runLint(t, "-C", "testdata/lintmod", "-only", "chanclose", "./...")
	if code != 1 {
		t.Fatalf("-only chanclose must still find the bug, got exit %d", code)
	}
}

func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	code, _, errOut := runLint(t, "-C", "testdata/lintmod", "-only", "nosuch", "./...")
	if code != 2 {
		t.Fatalf("unknown analyzer must exit 2, got %d", code)
	}
	if !strings.Contains(errOut, "unknown analyzer") {
		t.Fatalf("stderr must explain the failure, got %q", errOut)
	}
}

func TestLoadFailureExitsTwo(t *testing.T) {
	code, _, errOut := runLint(t, "-C", "testdata/nosuchdir", "./...")
	if code != 2 {
		t.Fatalf("load failure must exit 2, got %d (stderr %q)", code, errOut)
	}
}

func TestListNamesEveryAnalyzer(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("-list must exit 0, got %d", code)
	}
	for _, a := range suite {
		if !strings.Contains(out, a.Name) {
			t.Fatalf("-list output missing %s:\n%s", a.Name, out)
		}
	}
	// The three whose rules now hold by construction (spillclose: every file
	// is spill.Dir's; memacct: every reservation is a struct field released in
	// Close; deprecated: the tree has no Deprecated: paragraph) are gone.
	if lines := strings.Count(out, "\n"); lines != 7 {
		t.Fatalf("-list names %d analyzers, want 7:\n%s", lines, out)
	}
	for _, retired := range []string{"spillclose", "memacct", "deprecated"} {
		if strings.Contains(out, retired) {
			t.Fatalf("-list still names %s:\n%s", retired, out)
		}
	}
}

func TestSuppressionCounts(t *testing.T) {
	code, out, _ := runLint(t, "-C", "testdata/lintmod", "-suppressions", "./...")
	if code != 0 {
		t.Fatalf("-suppressions must exit 0, got %d", code)
	}
	counts := make(map[string]int)
	if err := json.Unmarshal([]byte(out), &counts); err != nil {
		t.Fatalf("-suppressions output must be a JSON object: %v\n%s", err, out)
	}
	if counts["chanclose"] != 1 {
		t.Fatalf("fixture has one justified chanclose suppression, got %v", counts)
	}
}

// writeBudget drops a budget file in a temp dir and returns its path.
func writeBudget(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "budget.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBudgetHoldsAndGrows(t *testing.T) {
	equal := writeBudget(t, `{"chanclose": 1}`)
	code, out, _ := runLint(t, "-C", "testdata/lintmod", "-budget", equal, "./...")
	if code != 0 {
		t.Fatalf("matching budget must pass, got exit %d stdout %q", code, out)
	}

	grown := writeBudget(t, `{"chanclose": 0}`)
	code, out, _ = runLint(t, "-C", "testdata/lintmod", "-budget", grown, "./...")
	if code != 1 {
		t.Fatalf("exceeded budget must exit 1, got %d", code)
	}
	if !strings.Contains(out, "budget exceeded") {
		t.Fatalf("growth must be called out, got %q", out)
	}

	slack := writeBudget(t, `{"chanclose": 3}`)
	code, out, _ = runLint(t, "-C", "testdata/lintmod", "-budget", slack, "./...")
	if code != 0 {
		t.Fatalf("slack budget must pass, got %d", code)
	}
	if !strings.Contains(out, "budget slack") {
		t.Fatalf("slack must invite a ratchet, got %q", out)
	}
}

func TestBudgetFileMissingExitsTwo(t *testing.T) {
	code, _, errOut := runLint(t, "-C", "testdata/lintmod", "-budget", "no-such-budget.json", "./...")
	if code != 2 {
		t.Fatalf("missing budget file must exit 2, got %d (stderr %q)", code, errOut)
	}
}
