package main

import (
	"context"
	"fmt"
	"time"

	"latchchar"
	"latchchar/internal/core"
	"latchchar/internal/obs"
	"latchchar/internal/stf"
	"latchchar/internal/transient"
)

// contourOptions mirrors `latchchar -cell <c> -points 40`, both directions,
// default exact evaluator.
func contourOptions() latchchar.Options {
	return latchchar.Options{Points: 40, BothDirections: true}
}

type contourState struct {
	cells map[string]*latchchar.Cell
	ref   map[string]polyline
}

func contourSetup(opts latchchar.Options) (*contourState, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	st := &contourState{cells: map[string]*latchchar.Cell{}, ref: ref}
	for _, name := range []string{"tspc", "c2mos"} {
		c, err := latchchar.CellByName(name)
		if err != nil {
			return nil, err
		}
		st.cells[name] = c
		// Warm-up: one short trace per cell faults in code and heap so
		// the first timed characterization pays no one-off start cost.
		warm := opts
		warm.Points = 2
		if _, err := latchchar.Characterize(c, warm); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
	}
	return st, nil
}

func runContour(cfg config) (*result, error) {
	opts := contourOptions()
	if cfg.smoke {
		opts.Points = 4
	}
	st, setupS, err := timeSetup(cfg, func() (*contourState, error) { return contourSetup(opts) })
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	check := func(name string, ct *latchchar.Contour) error {
		return checkContour(contourPS(ct), st.ref[name], contourTolPS, !cfg.smoke)
	}
	order := cellOrder(cfg.seed)
	if cfg.trace {
		return traceContour(cfg, st, opts, order, res, check)
	}

	var tspc, pairs []float64
	var points int
	var busy time.Duration
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < cfg.seconds; i++ {
		// One op characterizes both cells, so each run measures them
		// equally often; op_s is the median of the pairs' wall times.
		var pair time.Duration
		done := 0
		for _, name := range order {
			res.Attempted++
			s := time.Now()
			r, err := latchchar.Characterize(st.cells[name], opts)
			el := time.Since(s)
			if err != nil {
				res.fail(false, "contour %s: %v", name, err)
				continue
			}
			if err := check(name, r.Contour); err != nil {
				res.fail(true, "contour %s: %v", name, err)
				continue
			}
			logOp("contour "+name, i, el)
			busy += el
			pair += el
			done++
			points += len(r.Contour.Points)
			if name == "tspc" {
				tspc = append(tspc, el.Seconds())
			}
		}
		if done == len(order) {
			pairs = append(pairs, pair.Seconds())
		}
	}
	logDist("contour tspc s", tspc)
	logDist("contour pair s", pairs)
	res.set("setup_s", setupS, "s")
	res.set("op_s", median(pairs), "s")
	res.set("rate_per_s", float64(points)/busy.Seconds(), "1/s")
	return res, nil
}

// traceContour alternates the public Characterize with the traced flow on
// the same cell, checks that both give the same contour and sims counts,
// and reports the traced flow's per-layer figures plus the tracing
// overhead (traced over untraced wall time).
func traceContour(cfg config, st *contourState, opts latchchar.Options, order []string, res *result, check func(string, *latchchar.Contour) error) (*result, error) {
	rec := newRecorder()
	run := obs.New()
	var plainWall, tracedWall time.Duration
	var points, ops int
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < cfg.seconds; i++ {
		for _, name := range order {
			res.Attempted++
			s := time.Now()
			want, err := latchchar.Characterize(st.cells[name], opts)
			el := time.Since(s)
			if err != nil {
				res.fail(false, "contour %s: %v", name, err)
				continue
			}
			s = time.Now()
			got, err := tracedCharacterize(rec, ops+1, run, st.cells[name], opts)
			tel := time.Since(s)
			if err != nil {
				res.fail(false, "traced contour %s: %v", name, err)
				continue
			}
			if err := sameResult(got, want); err != nil {
				res.fail(true, "traced contour %s: %v", name, err)
				continue
			}
			if err := check(name, got.Contour); err != nil {
				res.fail(true, "traced contour %s: %v", name, err)
				continue
			}
			ops++
			plainWall += el
			tracedWall += tel
			points += len(got.Contour.Points)
		}
	}
	spans := rec.snapshot()
	if err := reportLayers(res, "contour", spans, ops, points, false); err != nil {
		return nil, err
	}
	res.set("trace.overhead_ratio", ratio(tracedWall.Seconds(), plainWall.Seconds()), "ratio")
	return res, nil
}

// sameResult is the traced-flow integrity check: the layer-by-layer flow
// must reproduce the public call's sims counts and contour.
func sameResult(got, want *latchchar.Result) error {
	if got.PlainSims != want.PlainSims || got.GradSims != want.GradSims {
		return fmt.Errorf("traced flow ran %d+%d sims, public call %d+%d",
			got.PlainSims, got.GradSims, want.PlainSims, want.GradSims)
	}
	return checkContour(contourPS(got.Contour), contourPS(want.Contour), contourTolPS, true)
}

// tracedCharacterize is latchchar.CharacterizeCtx's cold flow spelled out
// layer by layer — stf.NewEvaluator (calibration), core.FindSeedCtx,
// core.TraceContourCtx — with a span around each call and around every
// transient evaluation the solvers request. The evaluator carries an obs
// run, which turns on the integrator's wall-clock attribution (LU, device
// evaluation, sensitivities) that the ledger splits below stf.
func tracedCharacterize(rec *recorder, op int, run *obs.Run, cell *latchchar.Cell, opts latchchar.Options) (*latchchar.Result, error) {
	ctx := context.Background()
	root := rec.begin("contour.op", op, 0)
	defer rec.end(root)
	inst, err := cell.Build()
	if err != nil {
		return nil, err
	}
	cfg := opts.Eval
	cfg.Obs = run
	id := rec.begin("stf.NewEvaluator", op, root)
	ev, err := stf.NewEvaluator(inst, cfg)
	if err != nil {
		rec.end(id)
		return nil, err
	}
	rec.endWork(id, ev.Work, 1)
	ev.ResetCounters()

	// The option plumbing below matches characterizeCtx.
	maxS := cfg.WithDefaults().MaxSetupSkew
	bounds := opts.Bounds
	if (bounds == latchchar.Rect{}) {
		bounds = latchchar.Rect{MinS: 1e-12, MaxS: maxS, MinH: 1e-12, MaxH: maxS}
	}
	seedOpts := opts.Seed
	if seedOpts.Hi <= 0 || seedOpts.Hi > maxS {
		seedOpts.Hi = 0.8 * maxS
	}
	seedOpts.Obs = run
	traceOpts := core.TraceOptions{
		Step:           opts.Step,
		MaxPoints:      opts.Points,
		Bounds:         bounds,
		BothDirections: opts.BothDirections,
		MPNR:           opts.MPNR,
		Block:          opts.Block,
		Obs:            run,
	}
	p := &probe{ev: ev, rec: rec, op: op}

	p.parent = rec.begin("core.FindSeedCtx", op, root)
	seed, err := core.FindSeedCtx(ctx, p, seedOpts)
	rec.end(p.parent)
	if err != nil {
		return nil, fmt.Errorf("seeding: %w", err)
	}
	p.parent = rec.begin("core.TraceContourCtx", op, root)
	ct, err := core.TraceContourCtx(ctx, p, seed.TauS, seed.TauH, traceOpts)
	rec.end(p.parent)
	if err != nil {
		return nil, fmt.Errorf("tracing: %w", err)
	}
	return &latchchar.Result{Contour: ct, Calibration: ev.Calibration(),
		PlainSims: ev.PlainEvals, GradSims: ev.GradEvals, Stats: ev.Work}, nil
}

// probe is the core.Problem the traced flow hands the solvers: it records a
// span, with the integrator work done inside it, around every evaluation,
// and forwards the optional interfaces core type-asserts (observability,
// cancellation, block evaluation) to the evaluator.
type probe struct {
	ev         *stf.Evaluator
	rec        *recorder
	op, parent int
}

func (p *probe) Eval(tauS, tauH float64) (float64, error) {
	id := p.rec.begin("stf.Eval", p.op, p.parent)
	w0 := p.ev.Work
	h, err := p.ev.Eval(tauS, tauH)
	p.rec.endWork(id, statsSub(p.ev.Work, w0), 1)
	return h, err
}

func (p *probe) EvalGrad(tauS, tauH float64) (h, dhdS, dhdH float64, err error) {
	id := p.rec.begin("stf.EvalGrad", p.op, p.parent)
	w0 := p.ev.Work
	h, dhdS, dhdH, err = p.ev.EvalGrad(tauS, tauH)
	p.rec.endWork(id, statsSub(p.ev.Work, w0), 1)
	return h, dhdS, dhdH, err
}

func (p *probe) EvalGradBlock(tauS, tauH []float64) (h, dhdS, dhdH []float64, errs []error, err error) {
	id := p.rec.begin("stf.EvalGradBlock", p.op, p.parent)
	w0 := p.ev.Work
	h, dhdS, dhdH, errs, err = p.ev.EvalGradBlock(tauS, tauH)
	p.rec.endWork(id, statsSub(p.ev.Work, w0), len(tauS))
	return h, dhdS, dhdH, errs, err
}

func (p *probe) SetObs(run *obs.Run)            { p.ev.SetObs(run) }
func (p *probe) SetContext(ctx context.Context) { p.ev.SetContext(ctx) }

var (
	_ core.BlockProblem  = (*probe)(nil)
	_ core.ObsAttachable = (*probe)(nil)
	_ core.CtxAttachable = (*probe)(nil)
)

// statsSub returns a − b field by field.
func statsSub(a, b transient.Stats) transient.Stats {
	return transient.Stats{
		Steps:                    a.Steps - b.Steps,
		NewtonIters:              a.NewtonIters - b.NewtonIters,
		Factorizations:           a.Factorizations - b.Factorizations,
		SensSolves:               a.SensSolves - b.SensSolves,
		SensFactorizationsReused: a.SensFactorizationsReused - b.SensFactorizationsReused,
		ChordIters:               a.ChordIters - b.ChordIters,
		JacobianReuses:           a.JacobianReuses - b.JacobianReuses,
		DeviceBypasses:           a.DeviceBypasses - b.DeviceBypasses,
		BlockSharedSteps:         a.BlockSharedSteps - b.BlockSharedSteps,
		BlockPeelOffs:            a.BlockPeelOffs - b.BlockPeelOffs,
		BlockDonorReplays:        a.BlockDonorReplays - b.BlockDonorReplays,
		Wall:                     a.Wall - b.Wall,
		LU:                       a.LU - b.LU,
		DeviceEval:               a.DeviceEval - b.DeviceEval,
		Sens:                     a.Sens - b.Sens,
	}
}
