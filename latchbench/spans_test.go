package main

import (
	"math"
	"testing"
	"time"

	"latchchar/internal/transient"
)

const ms = time.Millisecond

func TestCoveredMergesOverlaps(t *testing.T) {
	iv := [][2]time.Duration{{0, 4 * ms}, {2 * ms, 6 * ms}, {8 * ms, 9 * ms}, {20 * ms, 30 * ms}}
	if got := covered(iv, 1*ms, 25*ms); got != 11*ms {
		t.Errorf("covered = %v, want 11ms (1-6, 8-9, 20-25)", got)
	}
	if got := covered(nil, 0, ms); got != 0 {
		t.Errorf("covered(nil) = %v", got)
	}
}

func closeTo(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A serial operation: root → {calibrate, seed → 2 evals, trace → eval}.
// Its ledger must add up to the root's wall time, with the transient wall
// inside each eval handed to the layers below stf.
func TestLedgerClosesOnSerialSpans(t *testing.T) {
	w := transient.Stats{Wall: 3 * ms, LU: 2 * ms, DeviceEval: 500 * time.Microsecond, Sens: 100 * time.Microsecond}
	spans := []span{
		{id: 1, name: "contour.op", start: 0, end: 100 * ms},
		{id: 2, parent: 1, name: "stf.NewEvaluator", start: 1 * ms, end: 5 * ms, work: w},
		{id: 3, parent: 1, name: "core.FindSeedCtx", start: 5 * ms, end: 30 * ms},
		{id: 4, parent: 3, name: "stf.Eval", start: 6 * ms, end: 16 * ms, work: w},
		{id: 5, parent: 3, name: "stf.Eval", start: 17 * ms, end: 27 * ms, work: w},
		{id: 6, parent: 1, name: "core.TraceContourCtx", start: 30 * ms, end: 99 * ms},
		{id: 7, parent: 6, name: "stf.EvalGrad", start: 31 * ms, end: 90 * ms, work: w},
	}
	rows, other, busy, wall := ledger(spans, layerOf)
	if !closeTo(busy, 0.1) || !closeTo(wall, 0.1) {
		t.Fatalf("busy %g, wall %g, want 0.1 each", busy, wall)
	}
	got := map[string]float64{}
	total := other
	for _, r := range rows {
		got[r.layer] = r.sec
		total += r.sec
	}
	if !closeTo(total, busy) {
		t.Errorf("rows + other = %g, busy %g", total, busy)
	}
	want := map[string]float64{
		"sparse":         4 * 0.002,
		"device":         4 * 0.0005,
		"transient.sens": 4 * 0.0001,
		"transient":      4 * 0.0004,
		"stf":            (0.004 + 0.010 + 0.010 + 0.059) - 4*0.003,
		"core":           (0.025 - 0.020) + (0.069 - 0.059),
	}
	for l, v := range want {
		if !closeTo(got[l], v) {
			t.Errorf("layer %s = %g s, want %g", l, got[l], v)
		}
	}
	if !closeTo(other, 0.100-0.004-0.025-0.069) {
		t.Errorf("other = %g", other)
	}

	r := &result{}
	if _, err := reportLedger(r, "test", spans, false); err != nil {
		t.Errorf("serial ledger rejected: %v", err)
	}
}

// Parallel children overlap: the parent's self time is what their union
// leaves, and busy time counts each worker's time.
func TestLedgerParallelChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "surface.op", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "surface.GenerateBlockCtx", start: 1 * ms, end: 9 * ms},
		{id: 3, parent: 2, name: "stf.EvalBlock", start: 1 * ms, end: 8 * ms},
		{id: 4, parent: 2, name: "stf.EvalBlock", start: 2 * ms, end: 9 * ms},
	}
	self := selfTimes(spans)
	if self[1] != 2*ms || self[2] != 0 || self[3] != 7*ms {
		t.Errorf("self times %v", self)
	}
	_, _, busy, wall := ledger(spans, layerOf)
	if !closeTo(busy, 0.016) || !closeTo(wall, 0.010) {
		t.Errorf("busy %g wall %g, want 0.016 and 0.010", busy, wall)
	}
	r := &result{}
	if _, err := reportLedger(r, "test", spans, false); err == nil {
		t.Error("a parallel ledger passed the serial wall check")
	}
	if _, err := reportLedger(r, "test", spans, true); err != nil {
		t.Errorf("parallel ledger rejected: %v", err)
	}
}

// Integrator attribution larger than the span it is charged to would push
// the stf row below zero; the ledger check must reject it even though the
// rows still add up to busy time.
func TestLedgerRejectsOverAttribution(t *testing.T) {
	base := []span{
		{id: 1, name: "contour.op", start: 0, end: 20 * ms},
		{id: 2, parent: 1, name: "core.FindSeedCtx", start: 1 * ms, end: 19 * ms},
		{id: 3, parent: 2, name: "stf.Eval", start: 2 * ms, end: 12 * ms},
	}
	cases := map[string]transient.Stats{
		"wall exceeds span":       {Wall: 11 * ms, LU: 5 * ms},
		"parts exceed their wall": {Wall: 9 * ms, LU: 6 * ms, DeviceEval: 2 * ms, Sens: 2 * ms},
	}
	for name, w := range cases {
		spans := append([]span(nil), base...)
		spans[2].work = w
		rows, other, busy, _ := ledger(spans, layerOf)
		total := other
		for _, r := range rows {
			total += r.sec
		}
		if !closeTo(total, busy) {
			t.Fatalf("%s: rows + other = %g, busy %g", name, total, busy)
		}
		if _, err := reportLedger(&result{}, "test", spans, false); err == nil {
			t.Errorf("%s: ledger accepted", name)
		}
	}
	spans := append([]span(nil), base...)
	spans[2].work = transient.Stats{Wall: 10 * ms, LU: 6 * ms, DeviceEval: 2 * ms, Sens: 2 * ms}
	if _, err := reportLedger(&result{}, "test", spans, false); err != nil {
		t.Errorf("attribution equal to the span rejected: %v", err)
	}
}
