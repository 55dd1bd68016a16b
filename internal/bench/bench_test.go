package bench

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMedianTime(t *testing.T) {
	d := MedianTime(3, func() { time.Sleep(time.Millisecond) })
	if d < 500*time.Microsecond {
		t.Fatalf("median too small: %v", d)
	}
	if MedianTime(0, func() {}) < 0 {
		t.Fatal("reps<1 should still measure once")
	}
}

func TestMedianTimePrep(t *testing.T) {
	preps := 0
	d := MedianTimePrep(3,
		func() int { preps++; time.Sleep(2 * time.Millisecond); return 1 },
		func(int) { time.Sleep(time.Millisecond) })
	if preps != 3 {
		t.Fatalf("prep ran %d times", preps)
	}
	// Prep time must be excluded.
	if d > 1800*time.Microsecond {
		t.Fatalf("prep time leaked into measurement: %v", d)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bbb"}}
	tab.AddRow("xxxx", "1")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "xxxx  1") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if Ratio(200*time.Millisecond, 100*time.Millisecond) != "2.00" {
		t.Fatal("Ratio broken")
	}
	if Ratio(time.Second, 0) != "inf" {
		t.Fatal("Ratio zero divisor broken")
	}
	if Seconds(1500*time.Millisecond) != "1.500s" {
		t.Fatal("Seconds broken")
	}
	if Count(1234567) != "1,234,567" {
		t.Fatalf("Count = %q", Count(1234567))
	}
	if Count(42) != "42" {
		t.Fatal("small Count broken")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.reps() != 3 || cfg.Scale != ScaleSmall {
		t.Fatal("defaults wrong")
	}
	if (Config{Scale: ScalePaper}).reps() != 5 {
		t.Fatal("paper reps should be 5")
	}
	if (Config{Scale: ScaleTiny}).reps() != 1 {
		t.Fatal("tiny reps should be 1")
	}
	if (Config{Scale: ScaleSmall, Reps: 7}).reps() != 7 {
		t.Fatal("explicit reps ignored")
	}
	if (Config{Scale: "bogus"}).valid() == nil {
		t.Fatal("bogus scale should be invalid")
	}
	if (Config{Scale: ScaleTiny}).seed() != 42 {
		t.Fatal("default seed should be 42")
	}
	if (Config{Scale: ScaleTiny, Seed: 7}).seed() != 7 {
		t.Fatal("explicit seed ignored")
	}
}

// TestRegistryCoversEveryTableAndFigure pins the registry to the paper: its
// 18 tables and figures in paper order, and nothing else. A non-paper
// experiment belongs in a package benchmark or in benchmark/.
func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table1", "compmodel", "fig2", "fig3", "table2", "fig4", "fig5", "table3",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"table4", "fig14",
	}
	var got []string
	for _, e := range Registry() {
		got = append(got, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Registry() = %v\nwant %v", got, want)
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id should not resolve")
	}
}

func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	cfg := Config{Scale: ScaleTiny, Threads: 2, Seed: 1}
	for _, e := range Registry() {
		var sb strings.Builder
		if err := e.Run(&sb, cfg); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s produced no output", e.ID)
		}
	}
}

func TestExperimentsRejectBadScale(t *testing.T) {
	cfg := Config{Scale: "huge"}
	for _, id := range []string{"fig2", "fig4", "table2", "fig10", "fig11", "fig12", "fig13", "fig14"} {
		e, _ := ByID(id)
		var sb strings.Builder
		if err := e.Run(&sb, cfg); err == nil {
			t.Errorf("%s accepted bad scale", id)
		}
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covered per-experiment")
	}
	var sb strings.Builder
	if err := RunAll(&sb, Config{Scale: ScaleTiny, Threads: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig12", "table4", "compmodel"} {
		if !strings.Contains(sb.String(), "=== "+id) {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}
