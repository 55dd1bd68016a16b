package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// PhaseStat is one phase's aggregate across all workers.
type PhaseStat struct {
	// Busy is the summed duration of the phase's spans over all workers
	// (inclusive of nested child spans), so with p parallel workers it can
	// exceed the phase's wall time by up to a factor of p.
	Busy time.Duration `json:"busy_ns"`
	// Wall is the span from the phase's earliest Begin to its latest End.
	Wall time.Duration `json:"wall_ns"`
	// Start is the phase's earliest Begin, on the recorder's clock (time
	// since the recorder epoch). Together with Wall it places the phase on
	// a waterfall; zero with Count == 0 means the phase never ran.
	Start time.Duration `json:"start_ns"`
	// Count is the number of spans recorded for the phase.
	Count int64 `json:"spans"`
}

// Summary is a point-in-time aggregate of the recorder's counters. It is
// safe to take while recording is still in progress.
type Summary struct {
	Phases  [NumPhases]PhaseStat `json:"phases"`
	Workers int                  `json:"workers"`
}

// Summary aggregates the per-phase counters. On a nil recorder it returns
// the zero Summary.
func (r *Recorder) Summary() Summary {
	var s Summary
	if r == nil {
		return s
	}
	for p := 0; p < NumPhases; p++ {
		first, last := r.first[p].Load(), r.last[p].Load()
		var wall, start time.Duration
		if first != math.MaxInt64 {
			start = time.Duration(first)
		}
		if last >= 0 && first != math.MaxInt64 && last >= first {
			wall = time.Duration(last - first)
		}
		s.Phases[p] = PhaseStat{
			Busy:  time.Duration(r.busy[p].Load()),
			Wall:  wall,
			Start: start,
			Count: r.count[p].Load(),
		}
	}
	r.mu.Lock()
	s.Workers = len(r.workers)
	r.mu.Unlock()
	return s
}

// Get returns the aggregate for one phase.
func (s Summary) Get(p Phase) PhaseStat { return s.Phases[p] }

// String renders the per-phase aggregates as an aligned table, omitting
// phases with no spans.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %8s\n", "phase", "busy", "wall", "spans")
	for p := 0; p < NumPhases; p++ {
		st := s.Phases[p]
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %12s %12s %8d\n",
			Phase(p).String(), st.Busy.Round(time.Microsecond), st.Wall.Round(time.Microsecond), st.Count)
	}
	return b.String()
}

// WritePrometheus writes the recorder's span families in Prometheus text
// exposition format (the families a sort's own exposition ends with). On a
// nil recorder it writes nothing.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Summary()
	var pw PromWriter
	pw.phaseFamilies([]PromRun{{Trace: &s}})
	return pw.Flush(w)
}
