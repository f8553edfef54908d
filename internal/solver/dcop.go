// Package solver provides the nonlinear DC operating-point solver: damped
// Newton-Raphson with gmin-stepping and source-stepping continuation
// fallbacks, SPICE-style.
package solver

import (
	"errors"
	"fmt"
	"math"

	"latchchar/internal/circuit"
	"latchchar/internal/linalg"
)

// ErrNoConvergence is returned when every solution strategy fails.
var ErrNoConvergence = errors.New("solver: DC operating point did not converge")

// DCOptions configure the operating-point solve.
type DCOptions struct {
	// MaxIter bounds Newton iterations per continuation stage (default 100).
	MaxIter int
	// VTol and RelTol define per-unknown convergence:
	// |Δx| ≤ VTol + RelTol·|x| for voltages; branch currents use
	// ITol + RelTol·|i|.
	VTol, ITol, RelTol float64
	// MaxStep limits the voltage update per iteration (default 0.5 V);
	// 0 disables damping.
	MaxStep float64
}

func (o DCOptions) withDefaults() DCOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.VTol <= 0 {
		o.VTol = 1e-9
	}
	if o.ITol <= 0 {
		o.ITol = 1e-12
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.MaxStep < 0 {
		o.MaxStep = 0
	} else if o.MaxStep == 0 {
		o.MaxStep = 0.5
	}
	return o
}

// DCStats reports how the operating point was obtained.
type DCStats struct {
	// Strategy names the successful continuation: "newton", "gmin" or
	// "source".
	Strategy string
	// Iterations is the total Newton iteration count across all stages.
	Iterations int
	// Stages is the number of continuation stages used.
	Stages int
}

// DCOperatingPoint solves f(x) + src(t) = 0 for the finalized circuit at
// time t, starting from x0 (which may be nil for a zero start). It returns
// the operating point without modifying x0.
func DCOperatingPoint(c *circuit.Circuit, t float64, x0 []float64, opts DCOptions) ([]float64, DCStats, error) {
	o := opts.withDefaults()
	n := c.N()
	ev := c.NewEval()
	x := make([]float64, n)
	if x0 != nil {
		if len(x0) != n {
			return nil, DCStats{}, fmt.Errorf("solver: x0 length %d, want %d", len(x0), n)
		}
		copy(x, x0)
	}
	st := DCStats{}

	// Plain Newton.
	if iters, err := dcNewton(ev, x, t, 1.0, 0, o); err == nil {
		st.Strategy = "newton"
		st.Iterations = iters
		st.Stages = 1
		return x, st, nil
	}

	// Gmin stepping: solve a sequence of easier problems with extra
	// conductance from every node to ground, reducing it geometrically.
	xg := make([]float64, n)
	ok := true
	iters := 0
	stages := 0
	for _, g := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 0} {
		it, err := dcNewton(ev, xg, t, 1.0, g, o)
		iters += it
		stages++
		if err != nil {
			ok = false
			break
		}
	}
	if ok {
		copy(x, xg)
		st.Strategy = "gmin"
		st.Iterations = iters
		st.Stages = stages
		return x, st, nil
	}

	// Source stepping: ramp the independent sources from 0 to full value.
	xs := make([]float64, n)
	iters = 0
	stages = 0
	alpha := 0.0
	step := 0.1
	for alpha < 1 {
		next := math.Min(1, alpha+step)
		trial := append([]float64(nil), xs...)
		it, err := dcNewton(ev, trial, t, next, 0, o)
		iters += it
		stages++
		if err != nil {
			step /= 2
			if step < 1e-4 {
				return nil, DCStats{}, fmt.Errorf("%w (source stepping stalled at α=%g)", ErrNoConvergence, alpha)
			}
			continue
		}
		copy(xs, trial)
		alpha = next
		if step < 0.1 {
			step *= 2
		}
	}
	copy(x, xs)
	st.Strategy = "source"
	st.Iterations = iters
	st.Stages = stages
	return x, st, nil
}

// dcNewton runs damped Newton on f(x) + α·src(t) + g·x_nodes = 0, updating
// x in place. It returns the iteration count.
func dcNewton(ev *circuit.Eval, x []float64, t, alpha, gExtra float64, o DCOptions) (int, error) {
	c := ev.Circuit()
	n := c.N()
	numNodes := c.NumNodes()
	r := make([]float64, n)
	dx := make([]float64, n)
	j := linalg.NewMatrix(n, n)
	var lu linalg.LU
	// Cache the diagonal positions for the gmin-stepping conductance.
	var diag []int
	if gExtra > 0 {
		diag = make([]int, numNodes)
		ev.At(x, t) // ensure pattern values exist (indices are state-independent)
		for i := 0; i < numNodes; i++ {
			idx, ok := ev.G.Index(i, i)
			if !ok {
				return 0, fmt.Errorf("solver: node %d lacks a diagonal entry", i)
			}
			diag[i] = idx
		}
	}
	for iter := 1; iter <= o.MaxIter; iter++ {
		ev.At(x, t)
		for i := 0; i < n; i++ {
			r[i] = ev.F[i] + alpha*ev.Src[i]
		}
		if gExtra > 0 {
			for i := 0; i < numNodes; i++ {
				r[i] += gExtra * x[i]
				ev.G.Val[diag[i]] += gExtra
			}
		}
		j.Zero()
		ev.G.ScatterAdd(1, j)
		if err := lu.Refactor(j); err != nil {
			return iter, fmt.Errorf("solver: Jacobian singular at iteration %d: %w", iter, err)
		}
		lu.SolveInto(r, dx)
		// Damping: limit the largest voltage move.
		scale := 1.0
		if o.MaxStep > 0 {
			maxDV := 0.0
			for i := 0; i < numNodes; i++ {
				if a := math.Abs(dx[i]); a > maxDV {
					maxDV = a
				}
			}
			if maxDV > o.MaxStep {
				scale = o.MaxStep / maxDV
			}
		}
		conv := true
		for i := 0; i < n; i++ {
			x[i] -= scale * dx[i]
			atol := o.VTol
			if i >= numNodes {
				atol = o.ITol
			}
			if math.Abs(dx[i]) > atol+o.RelTol*math.Abs(x[i]) {
				conv = false
			}
		}
		if conv && scale == 1 {
			return iter, nil
		}
	}
	return o.MaxIter, ErrNoConvergence
}
