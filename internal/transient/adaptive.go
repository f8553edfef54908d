package transient

import (
	"context"
	"errors"
	"fmt"
	"math"

	"latchchar/internal/circuit"
	"latchchar/internal/linalg"
	"latchchar/internal/num"
)

// Adaptive time stepping. Characterization transients must run on fixed,
// τ-independent grids (so h(τ) stays smooth), but one-off simulations —
// calibration sweeps, waveform dumps, netlist debugging — benefit from
// local-truncation-error control. The scheme is the classic SPICE one:
// predict the new state by polynomial extrapolation of the accepted
// history, correct with the implicit method, and use the
// predictor-corrector difference as the LTE estimate that accepts the step
// and picks the next step size.

// ErrStepLimit is returned when the adaptive run exceeds MaxSteps.
var ErrStepLimit = errors.New("transient: adaptive step limit exceeded")

// ErrStepUnderflow is returned when the controller cannot find an
// acceptable step above HMin.
var ErrStepUnderflow = errors.New("transient: adaptive step underflow")

// AdaptiveOptions configure an adaptive run.
type AdaptiveOptions struct {
	// Method selects BE (default) or TRAP.
	Method Method
	// RelTol and AbsTol define the per-node LTE acceptance test
	// (defaults 1e-3 and 1e-6 V).
	RelTol, AbsTol float64
	// HInit, HMin, HMax bound the step size (defaults: span/1e3, span/1e9,
	// span/20).
	HInit, HMin, HMax float64
	// MaxSteps bounds the accepted-step count (default 200000).
	MaxSteps int
	// MaxNewtonIter bounds the per-step Newton iterations (default 50).
	MaxNewtonIter int
	// Probes lists unknowns recorded at every accepted step.
	Probes []circuit.UnknownID
}

func (o AdaptiveOptions) withDefaults(span float64) AdaptiveOptions {
	if o.RelTol <= 0 {
		o.RelTol = 1e-3
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 1e-6
	}
	if o.HInit <= 0 {
		o.HInit = span / 1e3
	}
	if o.HMin <= 0 {
		o.HMin = span / 1e9
	}
	if o.HMax <= 0 {
		o.HMax = span / 20
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 200000
	}
	if o.MaxNewtonIter <= 0 {
		o.MaxNewtonIter = 50
	}
	return o
}

// AdaptiveResult is the outcome of an adaptive transient.
type AdaptiveResult struct {
	// Times are the accepted time points (including t0).
	Times []float64
	// Probes[i] is the waveform of Options.Probes[i] over Times.
	Probes [][]float64
	// X is the final state.
	X []float64
	// Stats counts the work; Steps counts accepted steps only.
	Stats Stats
	// Rejected counts LTE-rejected step attempts.
	Rejected int
}

// RunAdaptive integrates the circuit from x0 at t0 to t1 with LTE-based
// step control. The circuit must be finalized; x0 is not modified.
func RunAdaptive(ckt *circuit.Circuit, x0 []float64, t0, t1 float64, opts AdaptiveOptions) (*AdaptiveResult, error) {
	return RunAdaptiveCtx(context.Background(), ckt, x0, t0, t1, opts)
}

// RunAdaptiveCtx is RunAdaptive with a cancellation context, checked between
// step attempts: a canceled run returns the waveform accepted so far together
// with an error wrapping context.Cause(ctx).
func RunAdaptiveCtx(ctx context.Context, ckt *circuit.Circuit, x0 []float64, t0, t1 float64, opts AdaptiveOptions) (*AdaptiveResult, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("transient: RunAdaptive needs t1 > t0")
	}
	n := ckt.N()
	if len(x0) != n {
		return nil, fmt.Errorf("transient: x0 length %d, want %d", len(x0), n)
	}
	o := opts.withDefaults(t1 - t0)
	ev := ckt.NewEval()
	j := linalg.NewMatrix(n, n)
	var lu linalg.LU

	x := append([]float64(nil), x0...)
	xPrev := append([]float64(nil), x0...) // state at the previous accepted point
	qPrev := make([]float64, n)
	qdotPrev := make([]float64, n)
	r := make([]float64, n)
	dx := make([]float64, n)
	pred := make([]float64, n)
	numNodes := ckt.NumNodes()

	res := &AdaptiveResult{Times: []float64{t0}}
	res.Probes = make([][]float64, len(o.Probes))
	record := func() {
		for pi, id := range o.Probes {
			v := 0.0
			if id != circuit.Ground {
				v = x[id]
			}
			res.Probes[pi] = append(res.Probes[pi], v)
		}
	}
	record()

	// Seed charge history at (x0, t0).
	ev.At(x, t0)
	copy(qPrev, ev.Q)
	for i := 0; i < n; i++ {
		qdotPrev[i] = -(ev.F[i] + ev.Src[i])
	}

	t := t0
	h := math.Min(o.HInit, t1-t0)
	hPrev := 0.0
	for t < t1 {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("transient: adaptive canceled at t=%g: %w", t, context.Cause(ctx))
		}
		if len(res.Times)-1 >= o.MaxSteps {
			return res, fmt.Errorf("%w at t=%g", ErrStepLimit, t)
		}
		if h < o.HMin {
			return res, fmt.Errorf("%w at t=%g (h=%g)", ErrStepUnderflow, t, h)
		}
		if t+h > t1 {
			h = t1 - t
		}
		tNew := t + h

		// Predictor: linear extrapolation from the last two accepted
		// points (constant for the first step).
		if hPrev > 0 {
			grow := h / hPrev
			for i := 0; i < n; i++ {
				pred[i] = x[i] + grow*(x[i]-xPrev[i])
			}
		} else {
			copy(pred, x)
		}

		// Corrector: implicit solve starting from the predictor.
		trial := append([]float64(nil), pred...)
		var alpha float64
		if o.Method == TRAP {
			alpha = 2 / h
		} else {
			alpha = 1 / h
		}
		converged := false
		for iter := 0; iter < o.MaxNewtonIter; iter++ {
			ev.At(trial, tNew)
			switch o.Method {
			case TRAP:
				for i := 0; i < n; i++ {
					r[i] = alpha*(ev.Q[i]-qPrev[i]) - qdotPrev[i] + ev.F[i] + ev.Src[i]
				}
			default:
				for i := 0; i < n; i++ {
					r[i] = alpha*(ev.Q[i]-qPrev[i]) + ev.F[i] + ev.Src[i]
				}
			}
			j.Zero()
			ev.C.ScatterAdd(alpha, j)
			ev.G.ScatterAdd(1, j)
			res.Stats.Factorizations++
			if err := lu.Refactor(j); err != nil {
				return res, fmt.Errorf("transient: adaptive factorization: %w", err)
			}
			lu.SolveInto(r, dx)
			res.Stats.NewtonIters++
			conv := true
			for i := 0; i < n; i++ {
				if !num.IsFinite(dx[i]) {
					conv = false
					break
				}
				trial[i] -= dx[i]
				atol := 1e-7
				if i >= numNodes {
					atol = 1e-10
				}
				if math.Abs(dx[i]) > atol+1e-5*math.Abs(trial[i]) {
					conv = false
				}
			}
			if conv {
				converged = true
				break
			}
		}
		if !converged {
			res.Rejected++
			h /= 4
			continue
		}

		// LTE estimate from the predictor-corrector difference (node
		// voltages only; branch currents can jump with sources).
		errNorm := 0.0
		if hPrev > 0 {
			for i := 0; i < numNodes; i++ {
				e := math.Abs(trial[i]-pred[i]) / (o.AbsTol + o.RelTol*math.Abs(trial[i]))
				if e > errNorm {
					errNorm = e
				}
			}
		}
		if errNorm > 2 {
			// Reject and retry with a smaller step.
			res.Rejected++
			h *= math.Max(0.2, 0.9/math.Sqrt(errNorm))
			continue
		}

		// Accept.
		ev.At(trial, tNew)
		if o.Method == TRAP {
			for i := 0; i < n; i++ {
				qdotPrev[i] = alpha*(ev.Q[i]-qPrev[i]) - qdotPrev[i]
			}
		}
		copy(qPrev, ev.Q)
		copy(xPrev, x)
		copy(x, trial)
		hPrev = h
		t = tNew
		res.Times = append(res.Times, t)
		record()
		res.Stats.Steps++

		// Grow the step if comfortably accurate.
		if errNorm < 0.5 {
			factor := 2.0
			if errNorm > 0 {
				factor = math.Min(2, 0.9/math.Sqrt(errNorm))
			}
			h = math.Min(o.HMax, h*factor)
		}
	}
	res.X = x
	return res, nil
}
