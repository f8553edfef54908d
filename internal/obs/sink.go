package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Sink consumes the structured event stream. Event is called under the
// collector lock (events arrive serialized, in order); Close is called once
// with the final aggregate summary.
type Sink interface {
	Event(e *Event)
	Close(sum *Summary) error
}

// --- JSON lines ---

// JSONLSink streams every event as one JSON object per line (schema v1).
type JSONLSink struct {
	enc *json.Encoder
	err error
}

// NewJSONLSink writes events to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Event implements Sink.
func (s *JSONLSink) Event(e *Event) {
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
}

// Close implements Sink, reporting any deferred write error.
func (s *JSONLSink) Close(*Summary) error { return s.err }

// --- Chrome trace-event format ---

// chromeEvent is one complete ("ph":"X") event of the Chrome trace-event
// format, loadable in Perfetto or chrome://tracing. Timestamps are
// microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  uint64  `json:"tid"`
}

// ChromeTraceSink renders finished spans as Chrome trace complete events.
// Concurrent top-level spans (corner sweeps, Monte-Carlo samples) land on
// separate tracks.
type ChromeTraceSink struct {
	w      io.Writer
	events []chromeEvent
}

// NewChromeTraceSink buffers span events and writes the JSON array on Close.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	return &ChromeTraceSink{w: w}
}

// Event implements Sink: span_end events become complete slices.
func (s *ChromeTraceSink) Event(e *Event) {
	if e.Kind != KindSpanEnd {
		return
	}
	s.events = append(s.events, chromeEvent{
		Name: e.Name,
		Cat:  "latchchar",
		Ph:   "X",
		Ts:   float64(e.TNs-e.DurNs) / 1e3,
		Dur:  float64(e.DurNs) / 1e3,
		Pid:  1,
		Tid:  e.Track,
	})
}

// Close writes the buffered trace as a JSON array.
func (s *ChromeTraceSink) Close(*Summary) error {
	// Stable render order: by track, then start time (spans arrive in end
	// order, which interleaves tracks nondeterministically under
	// concurrency).
	sort.SliceStable(s.events, func(i, j int) bool {
		if s.events[i].Tid != s.events[j].Tid {
			return s.events[i].Tid < s.events[j].Tid
		}
		return s.events[i].Ts < s.events[j].Ts
	})
	enc := json.NewEncoder(s.w)
	enc.SetIndent("", " ")
	return enc.Encode(s.events)
}

// --- Human text summary ---

// TextSummarySink ignores the event stream and renders the final aggregate:
// per-phase wall-clock, transient counts, Newton/corrector iteration
// histograms and the LU factorization/reuse ratio.
type TextSummarySink struct {
	w io.Writer
}

// NewTextSummarySink renders the run summary to w on Close.
func NewTextSummarySink(w io.Writer) *TextSummarySink {
	return &TextSummarySink{w: w}
}

// Event implements Sink (no-op; the summary is aggregate-only).
func (s *TextSummarySink) Event(*Event) {}

// Close implements Sink.
func (s *TextSummarySink) Close(sum *Summary) error {
	return WriteSummary(s.w, sum)
}

// WriteSummary renders a run summary as human-readable text.
func WriteSummary(w io.Writer, sum *Summary) error {
	if _, err := fmt.Fprintf(w, "— run summary (wall %v) —\n", sum.Wall.Round(time.Microsecond)); err != nil {
		return err
	}
	if len(sum.Phases) > 0 {
		fmt.Fprintf(w, "phases:\n")
		for _, p := range sum.Phases {
			avg := time.Duration(0)
			if p.Count > 0 {
				avg = p.Total / time.Duration(p.Count)
			}
			fmt.Fprintf(w, "  %-14s ×%-6d total %-12v avg %v\n",
				p.Name, p.Count, p.Total.Round(time.Microsecond), avg.Round(time.Microsecond))
		}
	}
	plain := sum.Counters[CtrTransients]
	grad := sum.Counters[CtrTransientsGrad]
	if plain+grad > 0 {
		fmt.Fprintf(w, "transients: %d (%d plain + %d gradient)\n", plain+grad, plain, grad)
	}
	if steps := sum.Counters[CtrSteps]; steps > 0 {
		fmt.Fprintf(w, "integrator: %d steps, %d Newton iterations\n",
			steps, sum.Counters[CtrNewtonIters])
	}
	if n := sum.Counters[CtrLUFactor]; n > 0 {
		fmt.Fprintf(w, "LU: %d factorizations\n", n)
	}
	if n := sum.Counters[CtrSensSolves]; n > 0 {
		fmt.Fprintf(w, "sensitivities: %d solves sharing %d converged-state factorizations\n",
			n, sum.Counters[CtrSensFactReused])
	}
	if n := sum.Counters[CtrPoints]; n > 0 {
		fmt.Fprintf(w, "contour points: %d (%d predictor steps rejected)\n",
			n, sum.Counters[CtrStepRejects])
	}
	for _, hs := range sum.Hists {
		fmt.Fprintf(w, "hist %-22s %s\n", hs.Name+":", hs.Hist)
	}
	// Leftover counters not covered above, for forward compatibility.
	known := map[string]bool{
		CtrTransients: true, CtrTransientsGrad: true, CtrSteps: true,
		CtrNewtonIters: true, CtrLUFactor: true,
		CtrSensSolves: true, CtrSensFactReused: true, CtrPoints: true,
		CtrStepRejects: true,
	}
	var rest []string
	for name := range sum.Counters {
		if !known[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(w, "counter %s = %d\n", name, sum.Counters[name])
	}
	return nil
}
