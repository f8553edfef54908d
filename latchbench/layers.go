package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"latchchar/internal/transient"
)

// perLayer lists every per-layer metric and its unit, in BENCHMARK.json
// order. A traced run reports all of them; a layer its workload does not
// reach reads 0, which is why every metric of such a layer is a count or a
// share, never a time. Times and counts are per benchmark operation; a
// share is of the traced busy time unless the name says otherwise.
var perLayer = []struct{ name, unit string }{
	{"sparse.lu_s", "s"},
	{"sparse.factorizations", "count"},
	{"sparse.lu_share", "ratio"},
	{"device.eval_s", "s"},
	{"device.bypasses", "count"},
	{"device.donor_replays", "count"},
	{"transient.wall_s", "s"},
	{"transient.self_s", "s"},
	{"transient.sens_share", "ratio"},
	{"transient.steps", "count"},
	{"transient.newton_per_step", "ratio"},
	{"transient.chord_iters", "count"},
	{"transient.block_shared_steps", "count"},
	{"transient.block_peeloffs", "count"},
	{"stf.calibrate_share", "ratio"},
	{"stf.plain_sims", "count"},
	{"stf.grad_sims", "count"},
	{"stf.eval_share", "ratio"},
	{"core.seed_share", "ratio"},
	{"core.trace_share", "ratio"},
	{"core.self_share", "ratio"},
	{"core.sims_per_point", "ratio"},
	{"engine.cal_cache_hit_ratio", "ratio"},
	{"surface.busy_ratio", "ratio"},
	{"sigma.sims_per_sample", "count"},
	{"sigma.warm_ratio", "ratio"},
	{"sigma.nominal_share", "ratio"},
	{"sigma.sample_share", "ratio"},
	{"jobcore.queue_share", "ratio"},
	{"jobcore.run_share", "ratio"},
	{"jobcore.result_hit_ratio", "ratio"},
	{"jobcore.coalesced", "count"},
	{"serve.overhead_share", "ratio"},
	{"serve.resp_kb", "kB"},
	{"ledger.other_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// fillLayers reports 0 for every per-layer metric the workload left unset.
func fillLayers(r *result) {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
}

// layerOf maps a span name onto its ledger layer: the module prefix, or ""
// for the benchmark's own operation spans (which count as other).
func layerOf(name string) string {
	if strings.HasSuffix(name, ".op") {
		return ""
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func isEval(name string) bool { return strings.HasPrefix(name, "stf.Eval") }

// attributionSlack is how far integrator attribution may exceed the span
// it is charged to before the ledger counts it as wrong: both are read
// from the monotonic clock, the attribution strictly inside the span.
const attributionSlack = time.Microsecond

// reportLedger writes the workload's spans and ledger to stderr, sets
// ledger.other_share and returns the traced busy time. It fails when the
// ledger does not close: no span may carry more transient wall time than
// its own self time, no row may be negative, layer self times plus other
// must add up to the busy time, and for serial operations busy time must
// equal the operations' wall time.
func reportLedger(r *result, workload string, spans []span, parallel bool) (float64, error) {
	dumpSpans(os.Stderr, spans)
	if err := checkAttribution(spans); err != nil {
		return 0, fmt.Errorf("%s: %w", workload, err)
	}
	rows, other, busy, wall := ledger(spans, layerOf)
	printLedger(os.Stderr, workload, rows, other, busy, wall)
	total := other
	slack := attributionSlack.Seconds() * float64(len(spans))
	for _, row := range rows {
		if row.sec < -slack {
			return 0, fmt.Errorf("%s: ledger row %s is negative (%.6f s)", workload, row.layer, row.sec)
		}
		total += row.sec
	}
	if other < -slack {
		return 0, fmt.Errorf("%s: ledger row other is negative (%.6f s)", workload, other)
	}
	if math.Abs(total-busy) > 1e-6*busy {
		return 0, fmt.Errorf("%s: ledger rows add up to %.6f s, traced busy time is %.6f s", workload, total, busy)
	}
	if !parallel && math.Abs(busy-wall) > 1e-6*wall {
		return 0, fmt.Errorf("%s: serial ledger busy time %.6f s differs from wall %.6f s", workload, busy, wall)
	}
	r.set("ledger.other_share", ratio(other, busy), "ratio")
	return busy, nil
}

// checkAttribution fails when a span carries integrator work whose
// transient wall time exceeds the span's self time, or whose LU, device
// and sensitivity parts exceed that wall: the ledger would then charge
// time twice and push a row below zero.
func checkAttribution(spans []span) error {
	self := selfTimes(spans)
	for _, s := range spans {
		w := s.work
		if w.Wall-self[s.id] > attributionSlack {
			return fmt.Errorf("span %s (id %d) carries %v of transient work in %v of self time", s.name, s.id, w.Wall, self[s.id])
		}
		if parts := w.LU + w.DeviceEval + w.Sens; parts-w.Wall > attributionSlack {
			return fmt.Errorf("span %s (id %d): LU, device and sensitivity time %v exceed its transient wall %v", s.name, s.id, parts, w.Wall)
		}
	}
	return nil
}

// setWork sets the metrics of the layers below stf from the integrator
// attribution w summed over n operations with traced busy time busy.
func setWork(r *result, w transient.Stats, n, busy float64) {
	per := func(x float64) float64 { return x / n }
	r.set("sparse.lu_s", per(w.LU.Seconds()), "s")
	r.set("sparse.factorizations", per(float64(w.Factorizations)), "count")
	r.set("sparse.lu_share", ratio(w.LU.Seconds(), busy), "ratio")
	r.set("device.eval_s", per(w.DeviceEval.Seconds()), "s")
	r.set("device.bypasses", per(float64(w.DeviceBypasses)), "count")
	r.set("device.donor_replays", per(float64(w.BlockDonorReplays)), "count")
	r.set("transient.wall_s", per(w.Wall.Seconds()), "s")
	r.set("transient.self_s", per((w.Wall - w.LU - w.DeviceEval - w.Sens).Seconds()), "s")
	r.set("transient.sens_share", ratio(w.Sens.Seconds(), busy), "ratio")
	r.set("transient.steps", per(float64(w.Steps)), "count")
	r.set("transient.newton_per_step", ratio(float64(w.NewtonIters), float64(w.Steps)), "ratio")
	r.set("transient.chord_iters", per(float64(w.ChordIters)), "count")
	r.set("transient.block_shared_steps", per(float64(w.BlockSharedSteps)), "count")
	r.set("transient.block_peeloffs", per(float64(w.BlockPeelOffs)), "count")
}

// reportLayers sets the per-layer metrics derivable from the spans of ops
// traced operations that delivered points contour points, and checks and
// prints the workload's ledger.
func reportLayers(r *result, workload string, spans []span, ops, points int, parallel bool) error {
	if ops == 0 {
		return fmt.Errorf("%s: no traced operation succeeded", workload)
	}
	busy, err := reportLedger(r, workload, spans, parallel)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	var w transient.Stats
	var plain, grad int
	var evalDur, calib, seed, trace, coreSelf float64
	for _, s := range spans {
		w.Add(s.work)
		d := s.dur().Seconds()
		switch {
		case isEval(s.name) && strings.Contains(s.name, "Grad"):
			grad += s.sims
			evalDur += d
		case isEval(s.name):
			plain += s.sims
			evalDur += d
		case strings.HasPrefix(s.name, "stf.NewEvaluator"):
			calib += d
		case s.name == "core.FindSeedCtx":
			seed += d
		case s.name == "core.TraceContourCtx":
			trace += d
		}
		if layerOf(s.name) == "core" {
			coreSelf += self[s.id].Seconds()
		}
	}
	n := float64(ops)
	setWork(r, w, n, busy)
	r.set("stf.calibrate_share", ratio(calib, busy), "ratio")
	r.set("stf.plain_sims", float64(plain)/n, "count")
	r.set("stf.grad_sims", float64(grad)/n, "count")
	r.set("stf.eval_share", ratio(evalDur, busy), "ratio")
	r.set("core.seed_share", ratio(seed, busy), "ratio")
	r.set("core.trace_share", ratio(trace, busy), "ratio")
	r.set("core.self_share", ratio(coreSelf, busy), "ratio")
	r.set("core.sims_per_point", ratio(float64(plain+grad), float64(points)), "ratio")
	return nil
}
