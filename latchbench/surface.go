package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"latchchar"
	"latchchar/internal/obs"
	"latchchar/internal/sched"
	"latchchar/internal/stf"
	"latchchar/internal/surface"
)

// solverWorkers is the engine parallelism of the surface, mc and serve
// workloads: the two CPUs the benchmark is sized for.
const solverWorkers = 2

// surfaceOptions mirrors `surfgen -cell tspc -n 40 -block 8` on a
// two-worker engine: the default [10 ps, 0.8 ns]² domain.
func surfaceOptions(smoke bool) latchchar.SurfaceOptions {
	o := latchchar.SurfaceOptions{N: 40, Block: 8, Parallelism: solverWorkers,
		Domain: latchchar.Rect{MinS: 10e-12, MaxS: 0.8e-9, MinH: 10e-12, MaxH: 0.8e-9}}
	if smoke {
		o.N = 12
	}
	return o
}

type surfaceState struct {
	eng  *latchchar.Engine
	cell *latchchar.Cell
	ref  polyline
}

func surfaceSetup(opts latchchar.SurfaceOptions) (*surfaceState, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		return nil, err
	}
	eng, err := latchchar.NewEngine(latchchar.EngineOptions{Parallelism: solverWorkers})
	if err != nil {
		return nil, err
	}
	// Warm-up on a small grid: starts the pool, faults in code and fills
	// the engine's calibration cache, as on any long-lived engine.
	warm := opts
	warm.N = 4
	if _, err := eng.BruteForce(context.Background(), cell, warm); err != nil {
		eng.Close()
		return nil, fmt.Errorf("surface warm-up: %w", err)
	}
	return &surfaceState{eng: eng, cell: cell, ref: ref["tspc"]}, nil
}

// checkSurface is paper E3: the brute-force contour must pass within
// surfaceTolPS of every traced reference point inside the swept domain
// (one grid cell in from its edges, where marching squares has data on
// both sides).
func checkSurface(sr *latchchar.SurfaceResult, opts latchchar.SurfaceOptions, ref polyline) error {
	if want := opts.N * opts.N; sr.Sims != want {
		return fmt.Errorf("surface ran %d sims, want %d", sr.Sims, want)
	}
	d := opts.Domain
	cellS := (d.MaxS - d.MinS) / float64(opts.N-1) * 1e12
	cellH := (d.MaxH - d.MinH) / float64(opts.N-1) * 1e12
	var inside polyline
	for _, p := range ref {
		if p[0] > d.MinS*1e12+cellS && p[0] < d.MaxS*1e12-cellS && p[1] > d.MinH*1e12+cellH && p[1] < d.MaxH*1e12-cellH {
			inside = append(inside, p)
		}
	}
	polys := surfacePolylines(sr.Contour)
	tol := surfaceTolPS * math.Pow(cellS/(790.0/39), 2)
	if dist := maxDist(inside, polys...); !(dist <= tol) {
		return fmt.Errorf("surface contour misses the traced reference by %.3g ps (tolerance %.3g ps, %d points checked)", dist, tol, len(inside))
	}
	return nil
}

// surfacePolylines converts marching-squares polylines to picoseconds.
func surfacePolylines(pls []latchchar.Polyline) []polyline {
	out := make([]polyline, len(pls))
	for i, pl := range pls {
		for _, p := range pl.Pts {
			out[i] = append(out[i], [2]float64{p[0] * 1e12, p[1] * 1e12})
		}
	}
	return out
}

func runSurface(cfg config) (*result, error) {
	opts := surfaceOptions(cfg.smoke)
	st, setupS, err := timeSetup(cfg, func() (*surfaceState, error) { return surfaceSetup(opts) })
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()
	res := &result{Correct: true}
	if cfg.trace {
		return traceSurface(cfg, st, opts, res)
	}
	var durs, rates []float64
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < cfg.seconds; i++ {
		res.Attempted++
		s := time.Now()
		sr, err := st.eng.BruteForce(context.Background(), st.cell, opts)
		el := time.Since(s)
		if err != nil {
			res.fail(false, "surface: %v", err)
			continue
		}
		if err := checkSurface(sr, opts, st.ref); err != nil {
			res.fail(true, "surface: %v", err)
			continue
		}
		logOp("surface", i, el)
		durs = append(durs, el.Seconds())
		rates = append(rates, float64(sr.Sims)/el.Seconds())
	}
	logDist("surface sims/s", rates)
	res.set("setup_s", setupS, "s")
	res.set("op_s", median(durs), "s")
	res.set("rate_per_s", median(rates), "1/s")
	return res, nil
}

// traceSurface alternates the public Engine.BruteForce with the traced
// flow, which runs surface.GenerateBlockCtx itself with a factory that
// times every block evaluation, and checks both give the same contour.
func traceSurface(cfg config, st *surfaceState, opts latchchar.SurfaceOptions, res *result) (*result, error) {
	rec := newRecorder()
	run := obs.New()
	pool := sched.NewPool(solverWorkers)
	defer pool.Close()
	// The engine's warm-up already measured this calibration; the traced
	// flow measures it once too and reuses it, as the engine's cache does.
	inst, err := st.cell.Build()
	if err != nil {
		return nil, err
	}
	ev, err := stf.NewEvaluator(inst, opts.Eval)
	if err != nil {
		return nil, err
	}
	cal := ev.Calibration()

	var plainWall, tracedWall time.Duration
	var ops int
	var genWall, rowBusy float64
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < cfg.seconds; i++ {
		res.Attempted++
		s := time.Now()
		want, err := st.eng.BruteForce(context.Background(), st.cell, opts)
		el := time.Since(s)
		if err != nil {
			res.fail(false, "surface: %v", err)
			continue
		}
		s = time.Now()
		got, err := tracedSurface(rec, ops+1, run, pool, st.cell, cal, opts)
		tel := time.Since(s)
		if err != nil {
			res.fail(false, "traced surface: %v", err)
			continue
		}
		if err := sameSurface(got, want); err != nil {
			res.fail(true, "traced surface: %v", err)
			continue
		}
		if err := checkSurface(got, opts, st.ref); err != nil {
			res.fail(true, "traced surface: %v", err)
			continue
		}
		ops++
		plainWall += el
		tracedWall += tel
	}
	spans := rec.snapshot()
	for _, s := range spans {
		switch s.name {
		case "surface.GenerateBlockCtx":
			genWall += s.dur().Seconds()
		case "stf.EvalBlock":
			rowBusy += s.dur().Seconds()
		}
	}
	if err := reportLayers(res, "surface", spans, ops, 0, true); err != nil {
		return nil, err
	}
	hits, misses := st.eng.CacheStats()
	res.set("engine.cal_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	res.set("surface.busy_ratio", ratio(rowBusy, solverWorkers*genWall), "ratio")
	res.set("trace.overhead_ratio", ratio(tracedWall.Seconds(), plainWall.Seconds()), "ratio")
	return res, nil
}

// sameSurface is the traced-flow integrity check for surfaces.
func sameSurface(got, want *latchchar.SurfaceResult) error {
	if got.Sims != want.Sims {
		return fmt.Errorf("traced flow ran %d sims, public call %d", got.Sims, want.Sims)
	}
	g, w := surfacePolylines(got.Contour), surfacePolylines(want.Contour)
	for _, pl := range g {
		if d := maxDist(pl, w...); !(d <= contourTolPS) {
			return fmt.Errorf("traced surface contour differs from the public one by %.3g ps", d)
		}
	}
	for _, pl := range w {
		if d := maxDist(pl, g...); !(d <= contourTolPS) {
			return fmt.Errorf("public surface contour differs from the traced one by %.3g ps", d)
		}
	}
	return nil
}

// tracedSurface is Engine.BruteForce's block path spelled out: the grid
// rows go through surface.GenerateBlockCtx on a two-worker pool, each
// worker building its evaluator from the shared calibration and
// evaluating its row in Block-lane chunks, with a span around each
// evaluator build and each block evaluation.
func tracedSurface(rec *recorder, op int, run *obs.Run, pool *sched.Pool, cell *latchchar.Cell, cal stf.Calibration, opts latchchar.SurfaceOptions) (*latchchar.SurfaceResult, error) {
	root := rec.begin("surface.op", op, 0)
	defer rec.end(root)
	d := opts.Domain
	sAxis := surface.Linspace(d.MinS, d.MaxS, opts.N)
	hAxis := surface.Linspace(d.MinH, d.MaxH, opts.N)
	gen := rec.begin("surface.GenerateBlockCtx", op, root)
	factory := func() (surface.BlockEvalFunc, error) {
		id := rec.begin("stf.NewEvaluatorWithCalibration", op, gen)
		defer rec.end(id)
		inst, err := cell.Build()
		if err != nil {
			return nil, err
		}
		cfg := opts.Eval
		cfg.Obs = run
		ev, err := stf.NewEvaluatorWithCalibration(inst, cfg, cal)
		if err != nil {
			return nil, err
		}
		lanes := opts.Block
		tauS := make([]float64, 0, lanes)
		return func(s float64, h, out []float64) error {
			for lo := 0; lo < len(h); lo += lanes {
				hi := min(lo+lanes, len(h))
				tauS = tauS[:0]
				for range h[lo:hi] {
					tauS = append(tauS, s)
				}
				id := rec.begin("stf.EvalBlock", op, gen)
				w0 := ev.Work
				vals, err := ev.EvalBlock(tauS, h[lo:hi])
				rec.endWork(id, statsSub(ev.Work, w0), hi-lo)
				if err != nil {
					return err
				}
				copy(out[lo:hi], vals)
			}
			return nil
		}, nil
	}
	sf, err := surface.GenerateBlockCtx(context.Background(), run, sAxis, hAxis, factory, pool, opts.Parallelism)
	rec.end(gen)
	if err != nil {
		return nil, err
	}
	id := rec.begin("surface.Contour", op, root)
	ct := sf.Contour(0)
	rec.end(id)
	return &latchchar.SurfaceResult{Surface: sf, Contour: ct, Calibration: cal, Sims: sf.NumSamples()}, nil
}
