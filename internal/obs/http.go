package obs

import (
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"math"
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
//	/metrics                 Prometheus text exposition: a sort's own
//	                         families, labelled per run
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
	_ = enc.Encode(snap) // too late for an error status; the connection is likely gone
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
	if !ri.done() {
		// WriteTrace reads the per-worker span buffers without
		// synchronization; it is only safe once the run's work has
		// finished.
		http.Error(w, fmt.Sprintf("run %q is still in flight; retry after it completes", id), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+"-trace.json"))
	_ = ri.opt.Recorder.WriteTrace(w)
}

func (g *Registry) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.WritePrometheus(w)
}

// WritePrometheus writes the registry-wide Prometheus exposition: the
// registry's own gauges, then the families of a sort's own exposition
// (obs.WritePrometheus) with one sample per retained run, labelled with its
// run id and label, then each run's completion, elapsed time, progress and
// ETA. On a nil registry it writes nothing.
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	snaps := g.Snapshots()
	runs := make([]PromRun, len(snaps))
	live := 0
	for i, s := range snaps {
		runs[i] = PromRun{Labels: []string{"run", s.ID, "label", s.Label},
			Counters: s.Counters, Decisions: s.Strategy, Trace: s.Trace}
		if !s.Done {
			live++
		}
	}
	var pw PromWriter
	pw.Family("rowsort_runs_live", "gauge", "Registered sort runs currently in flight.")
	pw.Sample(nil, float64(live))
	pw.Family("rowsort_runs_retained", "gauge", "Sort runs retained in the registry (live + recent).")
	pw.Sample(nil, float64(len(snaps)))
	pw.counterFamilies(runs)
	pw.phaseFamilies(runs)

	// A negative value is an unknown one (the ETA before there is signal);
	// its sample is left out.
	perRun := func(name, help string, get func(RunSnapshot) float64) {
		pw.Family(name, "gauge", help)
		for i, s := range snaps {
			if v := get(s); v >= 0 {
				pw.Sample(runs[i].Labels, v)
			}
		}
	}
	perRun("rowsort_run_done", "1 when the run has completed, 0 while in flight.",
		func(s RunSnapshot) float64 {
			if s.Done {
				return 1
			}
			return 0
		})
	perRun("rowsort_run_elapsed_seconds", "Run wall time so far (total runtime once done).",
		func(s RunSnapshot) float64 { return s.Elapsed.Seconds() })
	perRun("rowsort_run_progress_ratio", "Weighted overall completion estimate in [0, 1].",
		func(s RunSnapshot) float64 { return s.Fraction })
	perRun("rowsort_run_eta_seconds", "Estimated remaining seconds; absent while unknown.",
		func(s RunSnapshot) float64 { return s.ETA.Seconds() })
	return pw.Flush(w)
}

// indexData is the template payload for the HTML index.
type indexData struct {
	Now  time.Time
	Runs []indexRun
}

type indexRun struct {
	RunSnapshot
	// Rows, Spill and Mem are the counter cells: rows in/sorted/merged/out,
	// spill bytes written/read, broker bytes used/peak/limit.
	Rows, Spill, Mem string
	Bars             []waterBar
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
<td>{{.Rows}}</td>
<td>{{.Spill}}</td>
<td>{{.Mem}}</td>
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
		c := s.Counters
		data.Runs = append(data.Runs, indexRun{RunSnapshot: s, Bars: waterfall(s.Trace),
			Rows:  fmt.Sprintf("%d / %d / %d / %d", c[RowsIngested], c[RowsSorted], c[RowsMerged], c[RowsGathered]),
			Spill: fmt.Sprintf("%d / %d", c[SpillBytesWritten], c[SpillBytesRead]),
			Mem:   fmt.Sprintf("%d / %d / %d", c[MemUsed], c[MemPeak], c[MemLimit])})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, data)
}

// waterfall lays the traced phases out as bars over the recorder's full
// extent (earliest phase start to the latest end). Nil when there is no
// trace or nothing was recorded.
func waterfall(sum *Summary) []waterBar {
	if sum == nil {
		return nil
	}
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for _, ps := range sum.Phases {
		if ps.Count > 0 {
			lo, hi = min(lo, ps.Start), max(hi, ps.Start+ps.Wall)
		}
	}
	if hi <= lo {
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
