package core

import (
	"context"
	"math"
	"sync/atomic"

	"latchchar/internal/num"
	"latchchar/internal/obs"
)

// correctorHold is the test hook installed by HoldCorrectorForTest.
var correctorHold atomic.Pointer[func(context.Context)]

// HoldCorrectorForTest makes every MPNR corrector iteration call hold with
// the solve's context before it checks that context, and returns a function
// that removes the hook. Tests use it to make a job outlast its deadline by
// construction, whatever the solver speed: a hold that waits for ctx.Done
// parks the first corrector iteration until the deadline, after which the
// solve returns a *CanceledError as a slow solve would. It is for tests
// only and must not be installed by concurrently running tests.
func HoldCorrectorForTest(hold func(ctx context.Context)) (restore func()) {
	correctorHold.Store(&hold)
	return func() { correctorHold.Store(nil) }
}

// MPNROptions configure the Moore-Penrose Newton-Raphson corrector.
type MPNROptions struct {
	// MaxIter bounds the Newton iterations (default 12).
	MaxIter int
	// HTol is the residual tolerance in output units (volts for circuit
	// problems; default 1e-6).
	HTol float64
	// TauTol is the step-size tolerance in seconds: the iteration is
	// converged when ‖Δτ‖ falls below it (default 1e-16, i.e. well past the
	// paper's five significant digits on ~100 ps skews).
	TauTol float64
	// MaxStep clamps ‖Δτ‖ per iteration to keep iterates inside the Newton
	// convergence region (default 50 ps; 0 disables clamping).
	MaxStep float64
	// Record, when set, stores the iterate trajectory in the result
	// (used to reproduce Fig. 4).
	Record bool
	// Obs attaches observability: the solve runs inside a "corrector" span
	// and reports its iteration count to the corrector histogram. nil
	// disables collection.
	Obs *obs.Run
}

func (o MPNROptions) withDefaults() MPNROptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 12
	}
	if o.HTol <= 0 {
		o.HTol = 1e-6
	}
	if o.TauTol <= 0 {
		o.TauTol = 1e-16
	}
	if o.MaxStep < 0 {
		o.MaxStep = 0
	} else if o.MaxStep == 0 {
		o.MaxStep = 50e-12
	}
	return o
}

// MPNRResult is the outcome of a Moore-Penrose Newton solve.
type MPNRResult struct {
	Point
	Converged bool
	// Trajectory holds the iterates (including the start) when
	// MPNROptions.Record is set.
	Trajectory []Point
	// GradEvals counts gradient evaluations (= transient simulations with
	// sensitivities for the circuit problem).
	GradEvals int
}

// SolveMPNR runs the Moore-Penrose pseudo-inverse Newton-Raphson iteration
// of Section IIIC from the initial guess (τs0, τh0):
//
//	τ ← τ − h(τ) · H(τ)⁺,   H⁺ = Hᵀ(H·Hᵀ)⁻¹ = [gs, gh]ᵀ / (gs² + gh²)
//
// Under the usual regularity conditions the iteration converges to the
// point of the h = 0 curve nearest the initial guess.
func SolveMPNR(p Problem, tauS0, tauH0 float64, opts MPNROptions) (MPNRResult, error) {
	return SolveMPNRCtx(context.Background(), p, tauS0, tauH0, opts)
}

// SolveMPNRCtx is SolveMPNR with a cancellation context: ctx is checked
// before every gradient evaluation and threaded into the problem's
// transients (CtxAttachable), so a canceled deadline stops the solve within
// one transient step. Interrupted solves return a *CanceledError.
func SolveMPNRCtx(ctx context.Context, p Problem, tauS0, tauH0 float64, opts MPNROptions) (MPNRResult, error) {
	o := opts.withDefaults()
	res := MPNRResult{}
	sp := o.Obs.StartSpan(obs.SpanCorrector)
	detachObs := attachObs(p, sp, o.Obs)
	detachCtx := attachCtx(ctx, p)
	defer func() {
		detachCtx()
		detachObs()
		sp.Observe(obs.HistCorrectorIters, res.Point.CorrectorIters)
		sp.End()
	}()
	var ring iterRing
	tauS, tauH := tauS0, tauH0
	for iter := 1; iter <= o.MaxIter; iter++ {
		if hold := correctorHold.Load(); hold != nil {
			(*hold)(ctx)
		}
		if err := ctxErr(ctx, "mpnr", res.Point); err != nil {
			return res, err
		}
		h, gs, gh, err := p.EvalGrad(tauS, tauH)
		if err != nil {
			if canceled(err) {
				return res, &CanceledError{Op: "mpnr", At: res.Point, Err: err}
			}
			return res, &ConvergenceError{Op: "mpnr", At: res.Point, Iterates: ring.slice(), Err: err}
		}
		res.GradEvals++
		if o.Record {
			res.Trajectory = append(res.Trajectory, Point{TauS: tauS, TauH: tauH, H: h, DhdS: gs, DhdH: gh, CorrectorIters: iter - 1})
		}
		norm2 := gs*gs + gh*gh
		res.Point = Point{TauS: tauS, TauH: tauH, H: h, DhdS: gs, DhdH: gh, CorrectorIters: iter}
		ring.push(res.Point)
		if math.Abs(h) <= o.HTol {
			res.Converged = true
			return res, nil
		}
		if norm2 == 0 || !num.IsFinite(norm2) {
			return res, &ConvergenceError{Op: "mpnr", At: res.Point, Iterates: ring.slice(), Err: ErrDegenerateGradient}
		}
		// Moore-Penrose step (paper eqs. (23)–(24)).
		dS := h * gs / norm2
		dH := h * gh / norm2
		stepLen := math.Hypot(dS, dH)
		if o.MaxStep > 0 && stepLen > o.MaxStep {
			scale := o.MaxStep / stepLen
			dS *= scale
			dH *= scale
			stepLen = o.MaxStep
		}
		tauS -= dS
		tauH -= dH
		if stepLen <= o.TauTol {
			// The iterate stopped moving; declare convergence at the new τ
			// with the latest available residual information.
			res.Point.TauS, res.Point.TauH = tauS, tauH
			res.Converged = true
			return res, nil
		}
	}
	return res, &ConvergenceError{Op: "mpnr", At: res.Point, Iterates: ring.slice(), Err: ErrNoConvergence}
}

// Tangent returns the unit tangent vector induced by the Jacobian
// H = [gs, gh] (paper eq. (16)): T = (−gh, gs)/‖H‖. The returned vector is
// orthogonal to ∇h, i.e. tangent to the level curve h = const.
func Tangent(gs, gh float64) (ts, th float64, err error) {
	n := math.Hypot(gs, gh)
	if n == 0 || !num.IsFinite(n) {
		return 0, 0, ErrDegenerateGradient
	}
	return -gh / n, gs / n, nil
}
