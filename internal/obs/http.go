package obs

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"time"
)

// Handler returns the registry's embeddable HTTP surface:
//
//	/debug/rowsort/          HTML index of live + recent runs, with a
//	                         per-phase waterfall per run
//	/debug/rowsort/run       ?id=run-N JSON RunSnapshot
//	/debug/rowsort/trace     ?id=run-N Chrome trace_event download
//	                         (409 while the run is still in flight:
//	                         WriteTrace reads unsynchronized span buffers)
//	/metrics                 Prometheus text exposition, per-run labels
//
// Mount it at the server root (the paths are absolute):
//
//	mux := http.NewServeMux()
//	mux.Handle("/", reg.Handler())
func (g *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/rowsort/", g.serveIndex)
	mux.HandleFunc("/debug/rowsort/run", g.serveRun)
	mux.HandleFunc("/debug/rowsort/trace", g.serveTrace)
	mux.HandleFunc("/metrics", g.serveMetrics)
	return mux
}

func (g *Registry) serveRun(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	snap, ok := g.Snapshot(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown run %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		// Too late for an error status; the connection is likely gone.
		return
	}
}

func (g *Registry) serveTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	ri := g.run(id)
	if ri == nil {
		http.Error(w, fmt.Sprintf("unknown run %q", id), http.StatusNotFound)
		return
	}
	if ri.opt.Recorder == nil {
		http.Error(w, fmt.Sprintf("run %q has no trace recorder", id), http.StatusNotFound)
		return
	}
	if !ri.done.Load() {
		// WriteTrace reads the per-worker span buffers without
		// synchronization; it is only safe once the run's work has
		// finished.
		http.Error(w, fmt.Sprintf("run %q is still in flight; retry after it completes", id), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+"-trace.json"))
	if err := ri.opt.Recorder.WriteTrace(w); err != nil {
		return
	}
}

func (g *Registry) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := g.WritePrometheus(w); err != nil {
		return
	}
}

// WritePrometheus writes the registry-wide Prometheus exposition: registry
// gauges plus every retained run's progress counters, memory gauges, and
// overall fraction/ETA, each labeled with its run id. On a nil registry it
// writes nothing.
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	snaps := g.Snapshots()
	live := 0
	for _, s := range snaps {
		if !s.Done {
			live++
		}
	}
	var pw PromWriter
	pw.Family("rowsort_runs_live", "gauge", "Registered sort runs currently in flight.")
	pw.SampleInt(nil, int64(live))
	pw.Family("rowsort_runs_retained", "gauge", "Sort runs retained in the registry (live + recent).")
	pw.SampleInt(nil, int64(len(snaps)))

	runLbl := func(s RunSnapshot) []string { return []string{"run", s.ID, "label", s.Label} }
	intFamily := func(name, typ, help string, get func(RunSnapshot) int64) {
		pw.Family(name, typ, help)
		for _, s := range snaps {
			pw.SampleInt(runLbl(s), get(s))
		}
	}
	floatFamily := func(name, typ, help string, get func(RunSnapshot) float64) {
		pw.Family(name, typ, help)
		for _, s := range snaps {
			pw.Sample(runLbl(s), get(s))
		}
	}

	intFamily("rowsort_run_done", "gauge", "1 when the run has completed, 0 while in flight.",
		func(s RunSnapshot) int64 {
			if s.Done {
				return 1
			}
			return 0
		})
	floatFamily("rowsort_run_elapsed_seconds", "gauge", "Run wall time so far (total runtime once done).",
		func(s RunSnapshot) float64 { return s.Elapsed.Seconds() })
	intFamily("rowsort_run_rows_expected", "gauge", "Declared input rows (0 when unknown).",
		func(s RunSnapshot) int64 { return s.Counters.RowsExpected })
	intFamily("rowsort_run_rows_ingested_total", "counter", "Rows converted into pending runs.",
		func(s RunSnapshot) int64 { return s.Counters.RowsIngested })
	intFamily("rowsort_run_rows_sorted_total", "counter", "Rows that left run generation inside a sorted run.",
		func(s RunSnapshot) int64 { return s.Counters.RowsSorted })
	intFamily("rowsort_run_runs_generated_total", "counter", "Thread-local sorted runs cut.",
		func(s RunSnapshot) int64 { return s.Counters.RunsGenerated })
	intFamily("rowsort_run_spill_written_bytes_total", "counter", "Bytes written to spill files.",
		func(s RunSnapshot) int64 { return s.Counters.SpillBytesWritten })
	intFamily("rowsort_run_spill_read_bytes_total", "counter", "Bytes read back from spill files.",
		func(s RunSnapshot) int64 { return s.Counters.SpillBytesRead })
	intFamily("rowsort_run_rows_merged_total", "counter", "Rows emitted by merges, including intermediate passes.",
		func(s RunSnapshot) int64 { return s.Counters.RowsMerged })
	intFamily("rowsort_run_merge_passes_total", "counter", "Completed intermediate fan-in-reducing merge passes.",
		func(s RunSnapshot) int64 { return s.Counters.MergePasses })
	intFamily("rowsort_run_rows_gathered_total", "counter", "Rows materialized back into columnar chunks.",
		func(s RunSnapshot) int64 { return s.Counters.RowsGathered })
	intFamily("rowsort_run_prefetched_blocks_total", "counter", "Spill blocks decoded ahead by the read-ahead goroutines.",
		func(s RunSnapshot) int64 { return s.Counters.PrefetchedBlocks })
	intFamily("rowsort_run_prefetch_hits_total", "counter", "Merge block requests served from the prefetch buffer.",
		func(s RunSnapshot) int64 { return s.Counters.PrefetchHits })
	intFamily("rowsort_run_pressure_spills_total", "counter", "Resident runs shed to disk under memory pressure.",
		func(s RunSnapshot) int64 { return s.Counters.PressureSpills })
	intFamily("rowsort_run_mem_used_bytes", "gauge", "Memory-broker bytes currently reserved by the run.",
		func(s RunSnapshot) int64 { return s.Mem.UsedBytes })
	intFamily("rowsort_run_mem_peak_bytes", "gauge", "Memory-broker peak reservation over the run's life.",
		func(s RunSnapshot) int64 { return s.Mem.PeakBytes })
	intFamily("rowsort_run_mem_limit_bytes", "gauge", "Configured memory budget (0 = unlimited).",
		func(s RunSnapshot) int64 { return s.Mem.LimitBytes })
	intFamily("rowsort_run_mem_pressure_events_total", "counter", "Broker pressure callbacks observed by the run.",
		func(s RunSnapshot) int64 { return s.Mem.PressureEvents })
	floatFamily("rowsort_run_progress_ratio", "gauge", "Weighted overall completion estimate in [0, 1].",
		func(s RunSnapshot) float64 { return s.Fraction })
	pw.Family("rowsort_run_eta_seconds", "gauge", "Estimated remaining seconds; absent while unknown.")
	for _, s := range snaps {
		if s.ETA >= 0 {
			pw.Sample(runLbl(s), s.ETA.Seconds())
		}
	}

	// Per-run strategy decisions: sorted runs generated, broken down by the
	// run-generation sort that was executed. The family is absent until some
	// run has cut a sorted run.
	hasStrategy := false
	for _, s := range snaps {
		if len(s.Strategy) > 0 {
			hasStrategy = true
			break
		}
	}
	if hasStrategy {
		pw.Family("rowsort_run_strategy_runs_total", "counter",
			"Sorted runs generated, by chosen run-generation algorithm.")
		for _, s := range snaps {
			for _, ac := range AlgoCounts(s.Strategy) {
				pw.SampleInt([]string{"run", s.ID, "label", s.Label, "algo", ac.Algo}, int64(ac.Runs))
			}
		}
	}

	// Per-run phase spans, for runs that carry a span recorder.
	tracedIdx := -1
	for i, s := range snaps {
		if s.Trace != nil {
			tracedIdx = i
		}
	}
	if tracedIdx >= 0 {
		// The Summary families must each appear once with all runs'
		// samples, so the per-run emission is inlined here rather than
		// reusing Summary.writePrometheus (which writes whole families).
		phaseFamily := func(name, typ, help string, get func(PhaseStat) float64, isInt bool) {
			pw.Family(name, typ, help)
			for _, s := range snaps {
				if s.Trace == nil {
					continue
				}
				for p := 0; p < NumPhases; p++ {
					lbl := []string{"run", s.ID, "label", s.Label, "phase", Phase(p).String()}
					if isInt {
						pw.SampleInt(lbl, int64(get(s.Trace.Phases[p])))
					} else {
						pw.Sample(lbl, get(s.Trace.Phases[p]))
					}
				}
			}
		}
		phaseFamily("rowsort_run_phase_busy_seconds", "counter", "Summed span time per sort phase across workers.",
			func(ps PhaseStat) float64 { return ps.Busy.Seconds() }, false)
		phaseFamily("rowsort_run_phase_wall_seconds", "gauge", "Earliest-begin to latest-end wall time per sort phase.",
			func(ps PhaseStat) float64 { return ps.Wall.Seconds() }, false)
		phaseFamily("rowsort_run_phase_spans_total", "counter", "Spans recorded per sort phase.",
			func(ps PhaseStat) float64 { return float64(ps.Count) }, true)
	}
	return pw.Flush(w)
}

// indexData is the template payload for the HTML index.
type indexData struct {
	Now  time.Time
	Runs []indexRun
}

type indexRun struct {
	RunSnapshot
	Bars []waterBar
}

// waterBar is one phase's bar on the per-run waterfall, in percent of the
// run's traced extent.
type waterBar struct {
	Phase   string
	LeftPct float64
	WidPct  float64
	Busy    time.Duration
	Wall    time.Duration
	Spans   int64
}

var indexTmpl = template.Must(template.New("index").Funcs(template.FuncMap{
	"pct": func(f float64) string { return fmt.Sprintf("%.1f%%", f*100) },
	"dur": func(d time.Duration) string {
		if d < 0 {
			return "–"
		}
		return d.Round(time.Millisecond).String()
	},
}).Parse(`<!DOCTYPE html>
<html><head><title>rowsort runs</title><style>
body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin-bottom: 1em; }
th, td { padding: 4px 10px; border-bottom: 1px solid #ddd; text-align: left; font-size: 14px; }
th { background: #f5f5f5; }
.done { color: #666; }
.live { font-weight: 600; color: #0a7d2c; }
.meter { background: #eee; border-radius: 3px; width: 160px; height: 12px; display: inline-block; vertical-align: middle; }
.meter > div { background: #4a90d9; height: 100%; border-radius: 3px; }
.wf { position: relative; height: 18px; background: #fafafa; border: 1px solid #eee; margin: 1px 0; }
.wf > span.bar { position: absolute; top: 2px; bottom: 2px; background: #7cb2e8; border-radius: 2px; }
.wf > span.lbl { position: absolute; left: 4px; top: 1px; font-size: 11px; color: #345; z-index: 1; }
.wfbox { width: 480px; }
small { color: #888; }
</style></head><body>
<h1>rowsort runs</h1>
<p><small>{{len .Runs}} run(s) retained · snapshot at {{.Now.Format "15:04:05.000"}} ·
<a href="/metrics">/metrics</a></small></p>
<table>
<tr><th>id</th><th>label</th><th>state</th><th>stage</th><th>progress</th><th>eta</th><th>rows in/sorted/merged/out</th><th>spill w/r</th><th>mem used/peak/limit</th><th>elapsed</th><th></th></tr>
{{range .Runs}}
<tr>
<td><a href="/debug/rowsort/run?id={{.ID}}">{{.ID}}</a></td>
<td title="{{.Fingerprint}}">{{.Label}}</td>
<td>{{if .Done}}<span class="done">done</span>{{else}}<span class="live">live</span>{{end}}</td>
<td>{{.Stage}}</td>
<td><span class="meter"><div style="width: {{pct .Fraction}}"></div></span> {{pct .Fraction}}</td>
<td>{{if .Done}}—{{else if lt .ETA 0}}?{{else}}{{dur .ETA}}{{end}}</td>
<td>{{.Counters.RowsIngested}} / {{.Counters.RowsSorted}} / {{.Counters.RowsMerged}} / {{.Counters.RowsGathered}}</td>
<td>{{.Counters.SpillBytesWritten}} / {{.Counters.SpillBytesRead}}</td>
<td>{{.Mem.UsedBytes}} / {{.Mem.PeakBytes}} / {{.Mem.LimitBytes}}</td>
<td>{{dur .Elapsed}}</td>
<td>{{if and .Done .Trace}}<a href="/debug/rowsort/trace?id={{.ID}}">trace</a>{{end}}</td>
</tr>
{{if .Bars}}
<tr><td colspan="11"><div class="wfbox">
{{range .Bars}}<div class="wf"><span class="lbl">{{.Phase}} <small>busy {{dur .Busy}} · wall {{dur .Wall}} · {{.Spans}} spans</small></span><span class="bar" style="left: {{pct .LeftPct}}; width: {{pct .WidPct}}"></span></div>
{{end}}</div></td></tr>
{{end}}
{{end}}
</table>
{{if not .Runs}}<p>No runs registered yet.</p>{{end}}
</body></html>
`))

func (g *Registry) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/rowsort/" {
		http.NotFound(w, r)
		return
	}
	data := indexData{Now: time.Now()}
	for _, s := range g.Snapshots() {
		data.Runs = append(data.Runs, indexRun{RunSnapshot: s, Bars: waterfall(s.Trace)})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, data); err != nil {
		return
	}
}

// waterfall lays the traced phases out as bars over the recorder's full
// extent (earliest phase start to the latest end). Nil when there is no
// trace or nothing was recorded.
func waterfall(sum *Summary) []waterBar {
	if sum == nil {
		return nil
	}
	var lo, hi time.Duration
	first := true
	for p := 0; p < NumPhases; p++ {
		ps := sum.Phases[p]
		if ps.Count == 0 {
			continue
		}
		end := ps.Start + ps.Wall
		if first || ps.Start < lo {
			lo = ps.Start
		}
		if first || end > hi {
			hi = end
		}
		first = false
	}
	if first || hi <= lo {
		return nil
	}
	span := float64(hi - lo)
	var bars []waterBar
	for p := 0; p < NumPhases; p++ {
		ps := sum.Phases[p]
		if ps.Count == 0 {
			continue
		}
		bars = append(bars, waterBar{
			Phase:   Phase(p).String(),
			LeftPct: float64(ps.Start-lo) / span,
			WidPct:  float64(ps.Wall) / span,
			Busy:    ps.Busy,
			Wall:    ps.Wall,
			Spans:   ps.Count,
		})
	}
	return bars
}
