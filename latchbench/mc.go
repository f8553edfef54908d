package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/transient"
)

// mcOptions mirrors `latchchar -cell tspc -points 40 -fast -mc 16 -sampler
// sobol` on a two-worker engine; seed varies per run.
func mcOptions(seed int64, smoke bool) latchchar.MCOptions {
	o := latchchar.MCOptions{
		Samples:     16,
		Sampler:     latchchar.SamplerSobol,
		Seed:        seed,
		Parallelism: solverWorkers,
		Characterize: latchchar.Options{Points: 40, BothDirections: true,
			Eval: latchchar.DefaultFastPath()},
	}
	if smoke {
		o.Samples, o.Characterize.Points = 4, 4
	}
	return o
}

type mcState struct {
	eng *latchchar.Engine
	mk  func(latchchar.Process) *latchchar.Cell
	ref polyline
}

func mcSetup(smoke bool) (*mcState, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	mk, err := latchchar.CellMakerByName("tspc", latchchar.DefaultTiming())
	if err != nil {
		return nil, err
	}
	eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: solverWorkers})
	if err != nil {
		return nil, err
	}
	// Warm-up: a two-sample run with a short trace starts the pool and
	// faults in the fast path and sampler code.
	warm := mcOptions(0, true)
	warm.Samples, warm.Characterize.Points = 2, 2
	if _, err := eng.MonteCarloContours(context.Background(), mk, latchchar.DefaultProcess(), warm); err != nil {
		eng.Close()
		return nil, fmt.Errorf("mc warm-up: %w", err)
	}
	return &mcState{eng: eng, mk: mk, ref: ref["tspc-mc"]}, nil
}

// checkMC checks one Monte-Carlo run: the nominal trace matches the
// reference, every sample was solved warm or cold, and the
// sigma band is finite.
func checkMC(r *latchchar.MCResult, samples int, ref polyline, smoke bool) error {
	if err := checkContour(contourPS(r.Nominal.Contour), ref, contourTolPS, !smoke); err != nil {
		return fmt.Errorf("nominal trace: %w", err)
	}
	if r.WarmSamples+r.ColdFallbacks != samples {
		return fmt.Errorf("%d warm + %d cold samples, want %d", r.WarmSamples, r.ColdFallbacks, samples)
	}
	sg := r.Sigma
	if sg == nil || len(sg.Inner.Points) == 0 || len(sg.Outer.Points) == 0 {
		return fmt.Errorf("no sigma band")
	}
	for _, ct := range []*latchchar.Contour{sg.Inner, sg.Outer} {
		for _, p := range ct.Points {
			if math.IsNaN(p.TauS+p.TauH) || math.IsInf(p.TauS+p.TauH, 0) {
				return fmt.Errorf("sigma band point (%g, %g) is not finite", p.TauS, p.TauH)
			}
		}
	}
	return nil
}

func runMC(cfg config) (*result, error) {
	st, setupS, err := timeSetup(cfg, func() (*mcState, error) { return mcSetup(cfg.smoke) })
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()
	res := &result{Correct: true}
	if cfg.trace {
		return traceMC(cfg, st, res)
	}
	var runs []float64
	var samples int
	var busy time.Duration
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < cfg.seconds; i++ {
		res.Attempted++
		opts := mcOptions(mcSeed(cfg.seed, i), cfg.smoke)
		s := time.Now()
		r, err := st.eng.MonteCarloContours(context.Background(), st.mk, latchchar.DefaultProcess(), opts)
		el := time.Since(s)
		if err != nil {
			res.fail(false, "mc: %v", err)
			continue
		}
		if err := checkMC(r, opts.Samples, st.ref, cfg.smoke); err != nil {
			res.fail(true, "mc: %v", err)
			continue
		}
		logOp("mc", i, el)
		runs = append(runs, el.Seconds())
		samples += opts.Samples
		busy += el
	}
	logDist("mc run s", runs)
	res.set("setup_s", setupS, "s")
	res.set("op_s", median(runs), "s")
	res.set("rate_per_s", float64(samples)/busy.Seconds(), "1/s")
	return res, nil
}

// obsSpans collects the program's own mc-nominal and mc-sample spans from
// an obs run's event stream, with the sample index each one logs.
type obsSpans struct {
	mu    sync.Mutex
	ends  []obs.Event
	index map[uint64]int // span id → sample index
}

func (o *obsSpans) event(e obs.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case e.Kind == obs.KindSpanEnd && (e.Name == obs.SpanMCNominal || e.Name == obs.SpanMCSample):
		o.ends = append(o.ends, e)
	case e.Kind == obs.KindLog && strings.HasPrefix(e.Msg, "mc-sample "):
		if i, err := strconv.Atoi(strings.TrimPrefix(e.Msg, "mc-sample ")); err == nil {
			o.index[e.Span] = i
		}
	}
}

// traceMC alternates untraced and traced runs of the same draw. The traced
// run attaches an obs run, whose nominal and per-sample spans become the
// ledger's children of the operation span, each carrying the integrator
// attribution of its result.
func traceMC(cfg config, st *mcState, res *result) (*result, error) {
	rec := newRecorder()
	var plainWall, tracedWall, seedS, traceS float64
	var ops, samples, warm, sampleSims int
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < cfg.seconds; i++ {
		res.Attempted++
		opts := mcOptions(mcSeed(cfg.seed, i), cfg.smoke)
		s := time.Now()
		want, err := st.eng.MonteCarloContours(context.Background(), st.mk, latchchar.DefaultProcess(), opts)
		el := time.Since(s)
		if err != nil {
			res.fail(false, "mc: %v", err)
			continue
		}
		s = time.Now()
		run := obs.New()
		col := &obsSpans{index: map[uint64]int{}}
		cancel := run.Subscribe(col.event)
		opts.Characterize.Obs = run
		runStart := time.Now().Add(-run.Elapsed())
		root := rec.begin("mc.op", ops+1, 0)
		got, err := st.eng.MonteCarloContours(context.Background(), st.mk, latchchar.DefaultProcess(), opts)
		rec.end(root)
		cancel()
		tel := time.Since(s)
		if err != nil {
			res.fail(false, "traced mc: %v", err)
			continue
		}
		if err := sameMC(got, want); err != nil {
			res.fail(true, "traced mc: %v", err)
			continue
		}
		if err := checkMC(got, opts.Samples, st.ref, cfg.smoke); err != nil {
			res.fail(true, "traced mc: %v", err)
			continue
		}
		ops++
		plainWall += el.Seconds()
		tracedWall += tel.Seconds()
		sum := run.Summary()
		seedS += sum.Phase(obs.SpanSeed).Total.Seconds()
		traceS += sum.Phase(obs.SpanTrace).Total.Seconds()
		samples += len(got.Samples)
		warm += got.WarmSamples
		for _, sm := range got.Samples {
			sampleSims += sm.Result.TotalSims()
		}
		if err := addMCSpans(rec, ops, root, runStart, col, got); err != nil {
			return nil, err
		}
	}
	if ops == 0 {
		return nil, fmt.Errorf("mc: no traced operation succeeded")
	}
	spans := rec.snapshot()
	busy, err := reportLedger(res, "mc", spans, true)
	if err != nil {
		return nil, err
	}
	var w transient.Stats
	var nominal, sampleBusy, opWall float64
	for _, s := range spans {
		w.Add(s.work)
		switch s.name {
		case "latchchar.mc-nominal":
			nominal += s.dur().Seconds()
		case "latchchar.mc-sample":
			sampleBusy += s.dur().Seconds()
		case "mc.op":
			opWall += s.dur().Seconds()
		}
	}
	n := float64(ops)
	setWork(res, w, n, busy)
	res.set("core.seed_share", ratio(seedS, busy), "ratio")
	res.set("core.trace_share", ratio(traceS, busy), "ratio")
	res.set("sigma.sims_per_sample", ratio(float64(sampleSims), float64(samples)), "count")
	res.set("sigma.warm_ratio", ratio(float64(warm), float64(samples)), "ratio")
	res.set("sigma.nominal_share", ratio(nominal, opWall), "ratio")
	res.set("sigma.sample_share", ratio(sampleBusy, busy), "ratio")
	res.set("trace.overhead_ratio", ratio(tracedWall, plainWall), "ratio")
	return res, nil
}

// addMCSpans turns the collected obs spans of one traced run into ledger
// spans under root, attaching each its result's integrator attribution.
func addMCSpans(rec *recorder, op, root int, runStart time.Time, col *obsSpans, r *latchchar.MCResult) error {
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.ends) != len(r.Samples)+1 {
		return fmt.Errorf("mc: saw %d nominal/sample spans, want %d", len(col.ends), len(r.Samples)+1)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	base := runStart.Sub(rec.t0)
	for _, e := range col.ends {
		end := base + time.Duration(e.TNs)
		sp := span{id: len(rec.spans) + 1, parent: root, op: op,
			start: end - time.Duration(e.DurNs), end: end}
		var res *latchchar.Result
		if e.Name == obs.SpanMCNominal {
			sp.name, res = "latchchar.mc-nominal", r.Nominal
		} else {
			i, ok := col.index[e.Span]
			if !ok || i < 0 || i >= len(r.Samples) {
				return fmt.Errorf("mc: sample span %d has no sample index", e.Span)
			}
			sp.name, res = "latchchar.mc-sample", r.Samples[i].Result
		}
		sp.work, sp.sims = res.Stats, res.TotalSims()
		rec.spans = append(rec.spans, sp)
	}
	return nil
}

// sameMC is the traced-run integrity check: the same draw must give the
// same sims count, nominal contour and sigma band with tracing attached.
func sameMC(got, want *latchchar.MCResult) error {
	if got.TotalSims != want.TotalSims {
		return fmt.Errorf("traced run took %d sims, untraced %d", got.TotalSims, want.TotalSims)
	}
	if err := checkContour(contourPS(got.Nominal.Contour), contourPS(want.Nominal.Contour), contourTolPS, true); err != nil {
		return fmt.Errorf("nominal: %w", err)
	}
	if err := checkContour(contourPS(got.Sigma.Inner), contourPS(want.Sigma.Inner), contourTolPS, true); err != nil {
		return fmt.Errorf("sigma band: %w", err)
	}
	return nil
}
