package transient

import (
	"context"
	"errors"
	"fmt"
	"time"

	"latchchar/internal/obs"
)

// BlockResult holds the per-lane outcomes of a lane run (Engine.RunLanes)
// plus the aggregate work accounting. Lane k failed iff Errs[k] != nil, in
// which case X[k], Ms[k] and Mh[k] are nil.
type BlockResult struct {
	// X[k] is lane k's final state x(t_end).
	X [][]float64
	// Ms and Mh are the final sensitivities per lane when Options.Skews is
	// set, nil otherwise.
	Ms, Mh [][]float64
	// Errs[k] is lane k's Newton failure, nil for lanes that converged. A
	// failure in the shared prefix, where all lanes are identical, fails
	// every lane.
	Errs []error
	// Stats aggregates the work of all lanes. Steps counts executed
	// lane-steps; BlockSharedSteps counts the lane-steps the prefix saved.
	Stats Stats
}

// Ok reports whether every lane converged.
func (r *BlockResult) Ok() bool {
	for _, err := range r.Errs {
		if err != nil {
			return false
		}
	}
	return true
}

// RunLanes integrates k transients of the engine's circuit that differ only
// in their stimulus — the block kernel of DESIGN §13. setLane(j) installs
// lane j's stimulus on the shared circuit before that lane is integrated.
// tSplit is the earliest time any lane's stimulus can differ: the steps
// ending strictly before it are integrated once, then each lane's tail runs
// through the scalar step from a copy of the integrator state at the fork.
// Pass math.Inf(1) when all lanes are identical, and 0 (or any t ≤
// grid.Start()) to share nothing, in which case every lane starts from x0.
//
// A lane whose Newton iteration fails records its error in
// BlockResult.Errs and the remaining lanes continue (peel-off); a failure in
// the shared prefix fails every lane. The returned error is non-nil only for
// invalid options or arguments, a bad x0, or cancellation, which is checked
// between steps as in RunCtx. Options.Probes is a scalar-run concern and
// must be empty. The run is observed like RunCtx, with the block counters
// and the block size added to its span.
func (e *Engine) RunLanes(ctx context.Context, run *obs.Run, x0 []float64, grid Grid, tSplit float64, k int, setLane func(lane int)) (*BlockResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("transient: RunLanes needs at least one lane, got %d", k)
	}
	if len(e.opts.Probes) != 0 {
		return nil, errors.New("transient: RunLanes does not record Probes")
	}
	sp, err := e.begin(run)
	if err != nil {
		return nil, err
	}
	res, err := e.runLanes(ctx, x0, grid, tSplit, k, setLane)
	var st *Stats
	if res != nil {
		st = &res.Stats
	}
	e.end(sp, st, k)
	return res, err
}

func (e *Engine) runLanes(ctx context.Context, x0 []float64, grid Grid, tSplit float64, k int, setLane func(lane int)) (*BlockResult, error) {
	if n := e.c.N(); len(x0) != n {
		return nil, fmt.Errorf("transient: x0 length %d, want %d", len(x0), n)
	}
	pts := grid.Points()
	res := &BlockResult{
		X:    make([][]float64, k),
		Errs: make([]error, k),
	}
	if e.opts.Skews {
		res.Ms = make([][]float64, k)
		res.Mh = make([][]float64, k)
	}
	e.stats = Stats{}
	wall0 := time.Now()
	prefix, peeled := 0, 0 // shared steps integrated, lanes failed

	// The lanes are bit-identical on every step ending strictly before
	// tSplit, so one integration of that prefix stands in for all of them.
	// The strict comparison protects the step that lands exactly on the
	// divergence time.
	fork := 0
	for fork+1 < len(pts) && pts[fork+1] < tSplit {
		fork++
	}
	if fork > 0 {
		setLane(0)
		e.initAt(x0, pts[0])
		for s := 1; s <= fork; s++ {
			if err := canceled(ctx, pts, s); err != nil {
				return nil, err
			}
			if err := e.step(pts[s-1], pts[s]); err != nil {
				werr := fmt.Errorf("%w at t=%.6g s (step %d, shared prefix)", err, pts[s], s)
				for j := range res.Errs {
					res.Errs[j] = werr
				}
				peeled = k
				break
			}
			prefix++
		}
		e.saveFork()
	}
	steps := prefix

	for j := 0; j < k && peeled < k; j++ {
		setLane(j)
		if fork > 0 {
			e.restoreFork()
		} else {
			e.initAt(x0, pts[0])
		}
		for s := fork + 1; s < len(pts); s++ {
			if err := canceled(ctx, pts, s); err != nil {
				return nil, err
			}
			steps++
			if err := e.step(pts[s-1], pts[s]); err != nil {
				res.Errs[j] = fmt.Errorf("%w at t=%.6g s (step %d, lane %d)", err, pts[s], s, j)
				peeled++
				break
			}
		}
		if res.Errs[j] == nil {
			x, ms, mh := e.final()
			res.X[j] = x
			if e.opts.Skews {
				res.Ms[j], res.Mh[j] = ms, mh
			}
		}
	}

	res.Stats = e.stats
	res.Stats.Steps = steps
	res.Stats.BlockSharedSteps = (k - 1) * prefix
	if peeled < k {
		res.Stats.BlockPeelOffs = peeled
	}
	res.Stats.Wall = time.Since(wall0)
	return res, nil
}

// forkState lists the integrator state a step reads from the previous one;
// the fork snapshot copies exactly these vectors.
func (e *Engine) forkState() [8][]float64 {
	return [8][]float64{e.x, e.qPrev, e.cPrev.Val, e.qdotPrev, e.ms, e.mh, e.msdotPrev, e.mhdot}
}

// saveFork snapshots the integrator state at the end of the shared prefix.
func (e *Engine) saveFork() {
	for i, v := range e.forkState() {
		e.fork[i] = append(e.fork[i][:0], v...)
	}
}

// restoreFork rewinds the integrator to the fork snapshot.
func (e *Engine) restoreFork() {
	for i, v := range e.forkState() {
		copy(v, e.fork[i])
	}
}
