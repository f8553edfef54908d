package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"latchchar/internal/transient"
)

// span is one timed call the traced run made into a layer. Spans of one
// benchmark operation share op; parent is 0 for the operation's root.
type span struct {
	id, parent, op int
	name           string
	start, end     time.Duration // since the recorder was created
	// work is the integrator attribution (transient.Stats) the program
	// collected during the call, for spans around transient-running calls;
	// sims counts the transient simulations the call ran.
	work transient.Stats
	sims int
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps spans in memory; they are summarized when the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op, parent int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, op: op, name: name, start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) { r.endWork(id, transient.Stats{}, 0) }

// endWork closes span id, attaching the simulations and integrator work
// done inside it.
func (r *recorder) endWork(id int, work transient.Stats, sims int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].end = now
	r.spans[id-1].work = work
	r.spans[id-1].sims = sims
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes the spans one per line (name, op, id, parent, start, end in
// microseconds).
func dumpSpans(w io.Writer, spans []span) {
	for _, s := range spans {
		fmt.Fprintf(w, "span %-28s op=%-4d id=%-6d parent=%-6d start_us=%d end_us=%d\n",
			s.name, s.op, s.id, s.parent, s.start.Microseconds(), s.end.Microseconds())
	}
}

// covered returns the total length of the union of the intervals, clipped
// to [lo, hi]. Children of a parallel section overlap; their union is the
// part of the parent they account for.
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var c [][2]time.Duration
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]time.Duration{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range c {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time — its duration minus the part
// its child spans cover — keyed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(kids[s.id], s.start, s.end)
	}
	return self
}

// ledgerRow is one layer's share of the traced time.
type ledgerRow struct {
	layer string
	sec   float64
}

// ledger splits the traced time into layer self times. Each span's self
// time goes to the layer its name maps to (spans whose layer is "" count
// as other); a span carrying integrator work additionally hands the
// transient wall it contains down to the layers below stf: sparse LU,
// device evaluation, sensitivity solves and the integrator's own time.
// The rows plus other add up to busy, the sum of self times, which equals
// the root spans' wall time wherever spans nest without overlapping
// (serial operations); a parallel section makes busy the thread-time
// instead.
func ledger(spans []span, layerOf func(name string) string) (rows []ledgerRow, other, busy, wall float64) {
	self := selfTimes(spans)
	acc := map[string]float64{}
	for _, s := range spans {
		st := self[s.id].Seconds()
		busy += st
		if s.parent == 0 {
			wall += s.dur().Seconds()
		}
		w := s.work
		if w.Wall > 0 {
			acc["sparse"] += w.LU.Seconds()
			acc["device"] += w.DeviceEval.Seconds()
			acc["transient.sens"] += w.Sens.Seconds()
			acc["transient"] += (w.Wall - w.LU - w.DeviceEval - w.Sens).Seconds()
			st -= w.Wall.Seconds()
		}
		if l := layerOf(s.name); l != "" {
			acc[l] += st
		} else {
			other += st
		}
	}
	for l, v := range acc {
		rows = append(rows, ledgerRow{l, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sec > rows[j].sec })
	return rows, other, busy, wall
}

// printLedger writes the ledger as a table with shares of busy time.
func printLedger(w io.Writer, title string, rows []ledgerRow, other, busy, wall float64) {
	fmt.Fprintf(w, "ledger %s: wall %.4f s, busy %.4f s\n", title, wall, busy)
	fmt.Fprintf(w, "  %-16s %10s %7s\n", "layer", "self s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %10.4f %6.1f%%\n", r.layer, r.sec, 100*ratio(r.sec, busy))
	}
	fmt.Fprintf(w, "  %-16s %10.4f %6.1f%%\n", "other", other, 100*ratio(other, busy))
	total := other
	for _, r := range rows {
		total += r.sec
	}
	fmt.Fprintf(w, "  %-16s %10.4f %6.1f%%\n", "total", total, 100*ratio(total, busy))
}
