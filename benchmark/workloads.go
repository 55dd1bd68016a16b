package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"rowsort/internal/core"
	"rowsort/internal/vector"
	"rowsort/internal/workload"
)

// workloadDef is one benchmark workload: a seeded input generator and the
// only core.Options fields it sets. Everything else stays at the zero value,
// so the benchmark follows the sorter's defaults when a later change moves
// them. Rows are sized so the resident data is far outside L2/L3.
type workloadDef struct {
	Name string
	// Why says which layers the workload exercises and which it bypasses.
	Why  string
	Rows int
	Keys []core.SortColumn
	Gen  func(n int, seed uint64) *vector.Table
	// Opts returns the workload's options given its private spill directory.
	Opts func(spillDir string) core.Options
}

// benchThreads is the sorter parallelism of every timed sort: the sizing
// host has two CPUs, and no more goroutines than that ever feed sinks.
const benchThreads = 2

func cols(idx ...int) []core.SortColumn {
	keys := make([]core.SortColumn, len(idx))
	for i, c := range idx {
		keys[i] = core.SortColumn{Column: c}
	}
	return keys
}

func inMemory(string) core.Options { return core.Options{} }

func catalogSales(n int, seed uint64) *vector.Table { return workload.CatalogSales(n, 10, seed) }

var workloads = []workloadDef{
	{
		Name: "mem-uniform-int",
		Why:  "Fixed-width key, tiny payload, in memory: radix run sort and the mergepath k-way merge do the work; spill, varchar encoding and tie-breaks do none.",
		Rows: 1 << 21,
		Keys: cols(0),
		Gen:  workload.UniformInt64s,
		Opts: inMemory,
	},
	{
		Name: "mem-customer-str",
		Why:  "The paper's string query, in memory: varchar prefixes make 26-byte keys for MSD radix, heavy duplicates in the merge, string-heap gather; names fit the prefix, so no tie-breaks; no spill.",
		Rows: 1 << 20,
		Keys: cols(4, 5), // c_last_name, c_first_name
		Gen:  workload.Customer,
		Opts: inMemory,
	},
	{
		Name: "mem-wide-payload",
		Why:  "Small key, 125-byte rows, in memory: row scatter at ingest and the gather in Rows move most bytes; a gather or layout change shows here, not on mem-uniform-int.",
		Rows: 1 << 20,
		Keys: cols(0),
		Gen:  widePayload,
		Opts: inMemory,
	},
	{
		Name: "ext-catalog-spill",
		Why:  "Eager spill of 16 fixed runs with exact counters: block write, read-ahead, OVC loser tree, partitioned final merge; bypasses the memory broker's pressure logic.",
		Rows: 1 << 20,
		Keys: cols(0, 1, 2, 3),
		Gen:  catalogSales,
		Opts: func(dir string) core.Options {
			return core.Options{RunSize: 1 << 16, SpillDir: dir}
		},
	},
	{
		Name: "ext-budget-pressure",
		Why:  "16 MiB budget: pressure-driven shedding, merge passes that read and rewrite, streaming merge inside Rows; a spill-format gain that costs the rewrite path shows here.",
		Rows: 1 << 19,
		Keys: cols(0, 1, 2, 3),
		Gen:  catalogSales,
		Opts: func(dir string) core.Options {
			return core.Options{MemoryLimit: 16 << 20, SpillDir: dir}
		},
	},
}

// widePayloadSchema is an Int32 key followed by 12 Int64 and one 24-byte
// Varchar payload column: about 125 bytes a row.
var widePayloadSchema = func() vector.Schema {
	s := vector.Schema{{Name: "k", Type: vector.Int32}}
	for i := 0; i < 12; i++ {
		s = append(s, vector.Column{Name: fmt.Sprintf("p%d", i), Type: vector.Int64})
	}
	return append(s, vector.Column{Name: "s", Type: vector.Varchar})
}()

// widePayload generates n rows of widePayloadSchema with uniform keys, in
// chunks of vector.DefaultVectorSize like the workload package's generators.
func widePayload(n int, seed uint64) *vector.Table {
	rng := workload.NewRNG(seed)
	t := vector.NewTable(widePayloadSchema)
	var raw [12]byte
	for done := 0; done < n; {
		count := min(vector.DefaultVectorSize, n-done)
		c := vector.NewChunk(widePayloadSchema, count)
		for r := 0; r < count; r++ {
			c.Vectors[0].AppendInt32(int32(rng.Uint32()))
			for p := 1; p <= 12; p++ {
				c.Vectors[p].AppendInt64(int64(rng.Uint64()))
			}
			for i := 0; i < len(raw); i += 4 {
				v := rng.Uint32()
				raw[i], raw[i+1], raw[i+2], raw[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
			c.Vectors[13].AppendString(hex.EncodeToString(raw[:]))
		}
		t.Chunks = append(t.Chunks, c)
		done += count
	}
	return t
}

// prepared is a workload with its generated input and oracle.
type prepared struct {
	def      workloadDef
	table    *vector.Table
	rows     int
	expect   digest // of the correctly sorted input
	spillDir string
	opt      core.Options // Threads unset; runSort fills it in
}

// prepare generates the workload's input from the seed, builds its oracle
// and creates its spill directory under base. shift scales the row count
// down (rows >> shift) for the self-test.
func prepare(def workloadDef, seed uint64, shift uint, base string) (*prepared, error) {
	rows := def.Rows >> shift
	table := def.Gen(rows, seed)
	expect, err := buildOracle(table, def.Keys)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", def.Name, err)
	}
	dir := filepath.Join(base, def.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: spill directory: %w", def.Name, err)
	}
	return &prepared{def: def, table: table, rows: rows, expect: expect, spillDir: dir, opt: def.Opts(dir)}, nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
