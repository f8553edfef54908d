package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Recorder is a flight recorder: a bounded ring buffer over the most recent
// events of a run, attached as an always-on Sink. The buffer grows on demand
// up to its capacity and only then starts wrapping, so a short job holds
// memory for the events it recorded, not for a full ring. When the run is
// healthy it costs one struct copy per event (O(1), no per-event allocation
// once the ring is full); when a job fails, times out, or is cancelled, the
// recorded window is dumped with WriteDump as a JSONL post-mortem that
// ValidateDump / `tracecheck -dump` accepts.
//
// Event is invoked under the collector lock (all sinks are), so it never
// blocks and never calls back into the run. Snapshot and WriteDump may be
// called concurrently from the serving layer after the job dies.
type Recorder struct {
	mu       sync.Mutex
	buf      []Event // grows to capacity, then wraps
	capacity int
	next     int   // index of the next write once the ring is full
	dropped  int64 // events evicted by the wrap
}

// DefaultRecorderCapacity is the ring size used when NewRecorder is given a
// non-positive capacity: enough to hold the tail of a trace (steps,
// correctors, points) without holding a whole surface sweep in memory.
const DefaultRecorderCapacity = 4096

// NewRecorder creates a flight recorder holding the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{capacity: capacity}
}

// Event records e into the ring, evicting the oldest event once full.
func (r *Recorder) Event(e *Event) {
	r.mu.Lock()
	if n := len(r.buf); n < r.capacity {
		if n == cap(r.buf) {
			// Double, but never past the capacity.
			grown := make([]Event, n, min(max(2*n, 64), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, *e)
	} else {
		r.buf[r.next] = *e
		r.next = (r.next + 1) % r.capacity
		r.dropped++
	}
	r.mu.Unlock()
}

// Close satisfies Sink. The ring stays readable after Close so a dump can be
// taken from a run that already ended.
func (r *Recorder) Close(*Summary) error { return nil }

// Snapshot returns the recorded window in emission order and the number of
// older events the ring evicted to make room.
func (r *Recorder) Snapshot() ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out, r.dropped
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// DumpMeta identifies a post-mortem dump: which request (Corr) and job it
// belongs to, why it was taken (Reason, e.g. "timeout", "canceled",
// "convergence"), and the error string of the failure.
type DumpMeta struct {
	Corr   string
	Job    string
	Reason string
	Err    string
}

// WriteDump writes the flight-recorder post-mortem as JSON lines: a
// dump_meta header, the recorded event window, and (when errEv is non-nil) a
// trailing structured error event carrying the convergence iterate ring and
// step schedule. The output satisfies ValidateDump.
func (r *Recorder) WriteDump(w io.Writer, meta DumpMeta, errEv *Event) error {
	events, dropped := r.Snapshot()
	enc := json.NewEncoder(w)
	head := Event{
		V: SchemaVersion, Kind: KindDumpMeta,
		Corr: meta.Corr, Job: meta.Job, Reason: meta.Reason,
		Msg: meta.Err, Dropped: dropped,
	}
	if err := enc.Encode(&head); err != nil {
		return fmt.Errorf("obs: writing dump header: %w", err)
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: writing dump event %d: %w", i, err)
		}
	}
	if errEv != nil {
		ev := *errEv
		ev.V = SchemaVersion
		ev.Kind = KindError
		if ev.Corr == "" {
			ev.Corr = meta.Corr
		}
		if err := enc.Encode(&ev); err != nil {
			return fmt.Errorf("obs: writing dump error event: %w", err)
		}
	}
	return nil
}
