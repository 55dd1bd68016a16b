// Command csvsort sorts a CSV file with the relational sorter: a small but
// real tool on top of the library's public pipeline (schema inference →
// columnar chunks → normalized-key sort → columnar scan → CSV out).
//
// Usage:
//
//	csvsort -by "city,score:desc,name:asc:nullslast" input.csv > sorted.csv
//
// Each -by term is column[:asc|:desc][:nullsfirst|:nullslast]. The first
// line must be a header. Column types are inferred: a column whose non-empty
// values all parse as integers becomes BIGINT, else DOUBLE if they parse as
// floats, else VARCHAR. Empty fields are NULL.
//
// The -trace flag writes the sort's phase timeline as Chrome trace_event
// JSON (open in chrome://tracing or Perfetto); -metrics dumps the sort's
// counters in Prometheus text format ("-" for stderr). The -mem flag
// budgets the sort's resident bytes: over budget it degrades by spilling
// runs to a temp directory and streaming the final merge, instead of
// growing without bound.
//
// The -serve flag mounts the live observability plane while the sort runs:
// /debug/rowsort/ shows the sort's per-phase progress and ETA, /metrics its
// Prometheus counters. The server stays up after the sort completes (the
// finished snapshot stays queryable) until interrupted.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"rowsort/internal/core"
	"rowsort/internal/obs"
	"rowsort/internal/vector"
)

func main() {
	by := flag.String("by", "", "comma-separated sort keys: col[:asc|:desc][:nullsfirst|:nullslast]")
	threads := flag.Int("threads", 0, "sort threads (0 = GOMAXPROCS)")
	memLimit := flag.Int64("mem", 0, "memory budget in bytes for the sort (0 = unlimited); over budget the sort spills adaptively to a temp directory")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
	metrics := flag.String("metrics", "", "write Prometheus-text sort metrics to this file (\"-\" = stderr)")
	serve := flag.String("serve", "", "serve the live observability plane (/debug/rowsort/, /metrics) on this address while sorting, e.g. :6060; stays up after the sort until interrupted")
	flag.Parse()

	if *by == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: csvsort -by \"col[:desc][:nullslast],...\" input.csv")
		os.Exit(2)
	}

	var reg *obs.Registry
	if *serve != "" {
		reg = obs.NewRegistry(obs.DefaultKeepDone)
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "csvsort: -serve: %v\n", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: reg.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "csvsort: serving http://%s/debug/rowsort/ and /metrics\n", ln.Addr())
	}

	if err := run(flag.Arg(0), *by, *threads, *memLimit, *traceFile, *metrics, reg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "csvsort: %v\n", err)
		os.Exit(1)
	}

	if *serve != "" {
		fmt.Fprintln(os.Stderr, "csvsort: sort done; still serving the finished snapshot (interrupt to exit)")
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		<-ctx.Done()
	}
}

func run(path, by string, threads int, memLimit int64, traceFile, metrics string, reg *obs.Registry, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	header, records, err := readCSV(f)
	if err != nil {
		return err
	}
	schema, table, err := buildTable(header, records)
	if err != nil {
		return err
	}
	keys, err := parseKeys(by, schema)
	if err != nil {
		return err
	}
	opt := core.Options{Threads: threads, MemoryLimit: memLimit}
	if traceFile != "" || metrics != "" || reg != nil {
		// The registry's recorder makes the sort a run it serves; without
		// -serve reg is nil and this is a plain span recorder.
		opt.Telemetry = reg.Recorder("csvsort")
	}
	sorted, stats, err := core.SortTableStats(table, keys, opt)
	if err != nil {
		return err
	}
	if traceFile != "" {
		if err := writeFile(traceFile, opt.Telemetry.WriteTrace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if metrics != "" {
		if err := writeFile(metrics, stats.WritePrometheus); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return writeCSV(out, header, sorted)
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

func readCSV(r io.Reader) (header []string, records [][]string, err error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err = cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("reading header: %w", err)
	}
	records, err = cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("reading rows: %w", err)
	}
	return header, records, nil
}

// inferType picks the narrowest type that fits every non-empty value.
func inferType(records [][]string, col int) vector.Type {
	isInt, isFloat, any := true, true, false
	for _, rec := range records {
		v := rec[col]
		if v == "" {
			continue
		}
		any = true
		if isInt {
			if _, err := strconv.ParseInt(v, 10, 64); err != nil {
				isInt = false
			}
		}
		if !isInt && isFloat {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				isFloat = false
			}
		}
		if !isInt && !isFloat {
			return vector.Varchar
		}
	}
	switch {
	case !any:
		return vector.Varchar
	case isInt:
		return vector.Int64
	case isFloat:
		return vector.Float64
	default:
		return vector.Varchar
	}
}

func buildTable(header []string, records [][]string) (vector.Schema, *vector.Table, error) {
	for i, rec := range records {
		if len(rec) != len(header) {
			return nil, nil, fmt.Errorf("row %d has %d fields, header has %d", i+2, len(rec), len(header))
		}
	}
	schema := make(vector.Schema, len(header))
	for c, name := range header {
		schema[c] = vector.Column{Name: name, Type: inferType(records, c)}
	}
	table := vector.NewTable(schema)
	for start := 0; start < len(records); start += vector.DefaultVectorSize {
		count := min(vector.DefaultVectorSize, len(records)-start)
		chunk := vector.NewChunk(schema, count)
		for r := start; r < start+count; r++ {
			for c := range schema {
				v := records[r][c]
				if v == "" {
					chunk.Vectors[c].AppendNull()
					continue
				}
				switch schema[c].Type {
				case vector.Int64:
					x, _ := strconv.ParseInt(v, 10, 64)
					chunk.Vectors[c].AppendInt64(x)
				case vector.Float64:
					x, _ := strconv.ParseFloat(v, 64)
					chunk.Vectors[c].AppendFloat64(x)
				default:
					chunk.Vectors[c].AppendString(v)
				}
			}
		}
		if err := table.AppendChunk(chunk); err != nil {
			return nil, nil, err
		}
	}
	return schema, table, nil
}

func parseKeys(by string, schema vector.Schema) ([]core.SortColumn, error) {
	var keys []core.SortColumn
	for _, term := range strings.Split(by, ",") {
		parts := strings.Split(strings.TrimSpace(term), ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("empty sort key in %q", by)
		}
		col := schema.IndexOf(parts[0])
		if col < 0 {
			return nil, fmt.Errorf("unknown column %q", parts[0])
		}
		k := core.SortColumn{Column: col}
		for _, mod := range parts[1:] {
			switch strings.ToLower(mod) {
			case "asc":
			case "desc":
				k.Descending = true
			case "nullsfirst":
			case "nullslast":
				k.NullsLast = true
			default:
				return nil, fmt.Errorf("unknown modifier %q in %q", mod, term)
			}
		}
		keys = append(keys, k)
	}
	return keys, nil
}

func writeCSV(w io.Writer, header []string, t *vector.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, chunk := range t.Chunks {
		for r := 0; r < chunk.Len(); r++ {
			for c, v := range chunk.Vectors {
				val := v.Value(r)
				if val == nil {
					rec[c] = ""
					continue
				}
				switch x := val.(type) {
				case int64:
					rec[c] = strconv.FormatInt(x, 10)
				case float64:
					rec[c] = strconv.FormatFloat(x, 'g', -1, 64)
				default:
					rec[c] = fmt.Sprintf("%v", x)
				}
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
