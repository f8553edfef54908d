package transient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"latchchar/internal/circuit"
	"latchchar/internal/num"
	"latchchar/internal/obs"
)

// Method selects the integration scheme.
type Method int

const (
	// BE is first-order Backward Euler (default): L-stable, damps the
	// numerical ringing that TRAP can exhibit on stiff latch nodes.
	BE Method = iota
	// TRAP is the second-order trapezoidal rule.
	TRAP
)

func (m Method) String() string {
	if m == TRAP {
		return "trap"
	}
	return "be"
}

// ErrNewtonFailure indicates a time step whose Newton iteration did not
// converge. The grid is fixed (it must not depend on the skews), so the
// engine cannot retry with a smaller step; choose a finer grid instead.
var ErrNewtonFailure = errors.New("transient: Newton did not converge")

// ErrCanceled indicates a run stopped by context cancellation between time
// steps. Errors returned for canceled runs wrap both this sentinel and the
// context cause, so errors.Is works against either.
var ErrCanceled = errors.New("transient: run canceled")

// Options configure a transient run.
type Options struct {
	Method Method
	// Skews enables forward propagation of mₛ and m_h.
	Skews bool
	// MaxNewtonIter bounds the per-step Newton iterations (default 50).
	MaxNewtonIter int
	// VTol, ITol, RelTol define Newton convergence per unknown class.
	VTol, ITol, RelTol float64
	// Probes lists unknowns whose waveforms are recorded at every grid
	// point.
	Probes []circuit.UnknownID
	// Timing enables wall-clock attribution in Stats (LU, DeviceEval,
	// Sens). Attribution is also collected whenever an obs run is passed to
	// RunObs; with neither, only Stats.Wall is measured and the step loop
	// carries no timing overhead.
	Timing bool
}

// Validate rejects option values the defaulting pass cannot repair:
// non-finite tolerances and a negative iteration bound. The zero value is
// valid — withDefaults fills every unset knob — and Options built from a
// validated stf.Config never trip it; RunCtx re-checks so hand-built
// engines fail fast instead of iterating on NaN.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"VTol", o.VTol},
		{"ITol", o.ITol},
		{"RelTol", o.RelTol},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("transient: %s must be finite, got %g", f.name, f.v)
		}
	}
	if o.MaxNewtonIter < 0 {
		return fmt.Errorf("transient: MaxNewtonIter must be non-negative")
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.MaxNewtonIter <= 0 {
		o.MaxNewtonIter = 50
	}
	if o.VTol <= 0 {
		o.VTol = 1e-7
	}
	if o.ITol <= 0 {
		o.ITol = 1e-10
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-5
	}
	return o
}

// Stats counts the work done by a run; the characterization layers use it
// for the paper's cost comparisons.
type Stats struct {
	Steps          int
	NewtonIters    int
	Factorizations int
	SensSolves     int
	// SensFactorizationsReused counts steps whose two sensitivity solves
	// (mₛ and m_h) shared one factorization of the converged-state
	// Jacobian. That factorization is counted in Factorizations: it is the
	// gradient's extra cost per step, on top of the Newton iterations
	// (DESIGN §5).
	SensFactorizationsReused int
	// ChordIters, JacobianReuses and DeviceBypasses are always zero: every
	// Newton iteration factors a fresh Jacobian and every device is
	// evaluated exactly. The fields are kept for readers outside this
	// module.
	ChordIters     int
	JacobianReuses int
	DeviceBypasses int

	// Block-transient accounting (Engine.RunLanes; zero for scalar runs).
	// BlockSharedSteps counts lane-steps served by the shared exact prefix —
	// steps lanes 1..k−1 never had to integrate because every lane's
	// stimulus is bit-identical before the skews diverge. BlockPeelOffs
	// counts lanes that dropped out of a block on a Newton failure (they are
	// retried on the scalar path by the caller). BlockDonorReplays is always
	// zero: lanes no longer replay each other's device stamps. The field is
	// kept for readers outside this module.
	BlockSharedSteps  int
	BlockPeelOffs     int
	BlockDonorReplays int

	// Wall-clock attribution. Wall is always measured; LU (factorize +
	// solve), DeviceEval (model evaluation/assembly) and Sens (sensitivity
	// back-substitutions) are collected only when Options.Timing is set or
	// an obs run is attached, so the default step loop stays clean.
	Wall       time.Duration
	LU         time.Duration
	DeviceEval time.Duration
	Sens       time.Duration
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Steps += other.Steps
	s.NewtonIters += other.NewtonIters
	s.Factorizations += other.Factorizations
	s.SensSolves += other.SensSolves
	s.SensFactorizationsReused += other.SensFactorizationsReused
	s.BlockSharedSteps += other.BlockSharedSteps
	s.BlockPeelOffs += other.BlockPeelOffs
	s.Wall += other.Wall
	s.LU += other.LU
	s.DeviceEval += other.DeviceEval
	s.Sens += other.Sens
}

// Result holds the outcome of a transient run.
type Result struct {
	// Times is the grid (aliased, do not modify).
	Times []float64
	// Probes[i] is the waveform of Options.Probes[i] over Times.
	Probes [][]float64
	// X is the final state x(t_end).
	X []float64
	// Ms and Mh are the final sensitivities ∂x/∂τs and ∂x/∂τh when
	// Options.Skews is set, nil otherwise.
	Ms, Mh []float64
	// Stats reports the work done.
	Stats Stats
}

// Engine runs transient analyses of one finalized circuit. It owns all
// per-run scratch memory, so repeated runs (the characterization inner
// loop) do not allocate. An Engine is not safe for concurrent use.
type Engine struct {
	c    *circuit.Circuit
	ev   *circuit.Eval
	opts Options

	jac *circuit.Jacobian // J = α·C + G, factored over the free unknowns

	x, r, dx           []float64
	qPrev              []float64
	qdotPrev           []float64 // TRAP only
	ms, mh             []float64
	cms, cmh           []float64 // C·mₛ, C·m_h at the previous accepted state
	msdotPrev, mhdot   []float64 // TRAP sensitivity derivative memory
	zsVec, zhVec, rhsS []float64
	scr                []float64

	stats Stats

	fork [9][]float64 // integrator state at a lane run's fork (saveFork)

	// Per-run observability state (set by RunObs, cleared by default Run).
	timed      bool     // collect fine-grained wall-clock attribution
	hist       bool     // accumulate the per-step Newton histogram
	newtonHist obs.Hist // local accumulator, merged once per run
	prof       profLabels
}

// profLabels holds the prebuilt pprof label contexts; switching goroutine
// labels per phase is then a pointer swap, cheap enough for the step loop.
type profLabels struct {
	active        bool
	transient, lu context.Context
}

func (p *profLabels) init() {
	if p.transient != nil {
		return
	}
	p.transient = pprof.WithLabels(context.Background(), pprof.Labels("lcphase", "transient"))
	p.lu = pprof.WithLabels(context.Background(), pprof.Labels("lcphase", "lu"))
}

// NewEngine prepares an engine for the circuit with the given options.
func NewEngine(c *circuit.Circuit, opts Options) *Engine {
	o := opts.withDefaults()
	ev := c.NewEval()
	n := c.N()
	e := &Engine{
		c:     c,
		ev:    ev,
		opts:  o,
		x:     make([]float64, n),
		r:     make([]float64, n),
		dx:    make([]float64, n),
		qPrev: make([]float64, n),
		ms:    make([]float64, n),
		mh:    make([]float64, n),
		cms:   make([]float64, n),
		cmh:   make([]float64, n),
		jac:   ev.NewJacobian(),
	}
	e.qdotPrev = make([]float64, n)
	e.msdotPrev = make([]float64, n)
	e.mhdot = make([]float64, n)
	e.zsVec = make([]float64, n)
	e.zhVec = make([]float64, n)
	e.rhsS = make([]float64, n)
	e.scr = make([]float64, n)
	return e
}

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// Run integrates from x0 at grid.Start() to grid.End(). x0 is copied.
func (e *Engine) Run(x0 []float64, grid Grid) (*Result, error) {
	return e.RunCtx(context.Background(), nil, x0, grid)
}

// RunObs is Run with observability attached: the simulation runs inside a
// "transient" span of run, integrator counters and the per-step Newton
// iteration histogram are published to it, and (when the run requests
// profile labels) the goroutine carries pprof phase labels so CPU profiles
// attribute time to the transient vs. LU phases. A nil run behaves exactly
// like Run and adds no allocations.
func (e *Engine) RunObs(run *obs.Run, x0 []float64, grid Grid) (*Result, error) {
	return e.RunCtx(context.Background(), run, x0, grid)
}

// RunCtx is RunObs with a cancellation context: the step loop checks ctx
// between time steps, so a canceled deadline stops the integration within
// one step instead of running the grid to completion. A canceled run
// returns an error wrapping ErrCanceled and the context cause; the partial
// state is discarded (transients are cheap relative to a characterization —
// cancellation granularity for partial *results* is the contour point, see
// internal/core). A Background context adds one channel-poll per step.
func (e *Engine) RunCtx(ctx context.Context, run *obs.Run, x0 []float64, grid Grid) (*Result, error) {
	sp, err := e.begin(run)
	if err != nil {
		return nil, err
	}
	res, err := e.run(ctx, x0, grid)
	var st *Stats
	if res != nil {
		st = &res.Stats
	}
	e.end(sp, st, 0)
	return res, err
}

// begin validates the options, prepares the per-run observability state and
// opens the run's "transient" span. Every begin is paired with one end.
func (e *Engine) begin(run *obs.Run) (*obs.Run, error) {
	if err := e.opts.Validate(); err != nil {
		return nil, err
	}
	e.timed = e.opts.Timing || run.Enabled()
	e.hist = run.Enabled()
	if e.hist {
		e.newtonHist.Reset()
	}
	e.prof.active = run.ProfileLabelsEnabled()
	if e.prof.active {
		e.prof.init()
		pprof.SetGoroutineLabels(e.prof.transient)
	}
	return run.StartSpan(obs.SpanTransient), nil
}

// end publishes the integrator counters of st (nil for a failed run) and
// the per-step histograms to sp and closes it. lanes > 0 marks a lane run,
// which additionally publishes the block counters and its block size.
func (e *Engine) end(sp *obs.Run, st *Stats, lanes int) {
	if sp.Enabled() {
		sp.Count(obs.CtrLUFactor, int64(e.stats.Factorizations))
		if lanes > 0 {
			sp.Count(obs.CtrBlockRuns, 1)
			sp.Observe(obs.HistBlockSize, lanes)
		}
		if st != nil {
			sp.Count(obs.CtrSteps, int64(st.Steps))
			sp.Count(obs.CtrNewtonIters, int64(st.NewtonIters))
			sp.Count(obs.CtrSensSolves, int64(st.SensSolves))
			sp.Count(obs.CtrSensFactReused, int64(st.SensFactorizationsReused))
			if lanes > 0 {
				sp.Count(obs.CtrBlockPeelOffs, int64(st.BlockPeelOffs))
				sp.Count(obs.CtrBlockSharedSteps, int64(st.BlockSharedSteps))
			}
		}
		sp.Merge(obs.HistNewtonIters, &e.newtonHist)
	}
	sp.End()
	if e.prof.active {
		pprof.SetGoroutineLabels(context.Background())
	}
}

func (e *Engine) run(ctx context.Context, x0 []float64, grid Grid) (*Result, error) {
	n := e.c.N()
	if len(x0) != n {
		return nil, fmt.Errorf("transient: x0 length %d, want %d", len(x0), n)
	}
	pts := grid.Points()
	res := &Result{
		Times:  pts,
		Probes: make([][]float64, len(e.opts.Probes)),
	}
	for i := range res.Probes {
		res.Probes[i] = make([]float64, len(pts))
	}
	record := func(k int) {
		for pi, id := range e.opts.Probes {
			if id == circuit.Ground {
				res.Probes[pi][k] = 0
			} else {
				res.Probes[pi][k] = e.x[id]
			}
		}
	}
	e.stats = Stats{}
	wall0 := time.Now()
	e.initAt(x0, pts[0])
	record(0)
	for k := 1; k < len(pts); k++ {
		if err := canceled(ctx, pts, k); err != nil {
			return nil, err
		}
		if err := e.step(pts[k-1], pts[k]); err != nil {
			return nil, fmt.Errorf("%w at t=%.6g s (step %d)", err, pts[k], k)
		}
		record(k)
	}
	res.X, res.Ms, res.Mh = e.final()
	res.Stats = e.stats
	res.Stats.Steps = len(pts) - 1
	res.Stats.Wall = time.Since(wall0)
	return res, nil
}

// canceled returns the error for a run whose ctx is done before step k of
// the grid pts, nil otherwise. A Background context costs one nil check.
func canceled(ctx context.Context, pts []float64, k int) error {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return fmt.Errorf("%w at t=%.6g s (step %d of %d): %w",
			ErrCanceled, pts[k], k, len(pts)-1, context.Cause(ctx))
	default:
		return nil
	}
}

// final returns copies of the final state and, with Skews, of the final
// sensitivities.
func (e *Engine) final() (x, ms, mh []float64) {
	x = append([]float64(nil), e.x...)
	if e.opts.Skews {
		ms = append([]float64(nil), e.ms...)
		mh = append([]float64(nil), e.mh...)
	}
	return x, ms, mh
}

// initAt seeds the integrator state at t0: the initial assembly fills qPrev
// and (for TRAP) the charge derivative qdot0 = −(f + src); the
// sensitivities (and with them C·m) start at zero because x0 is fixed
// independent of the skews (paper step 1c), with the TRAP derivative
// memory at −∂src/∂τ(t0), which vanishes while the data line is quiescent.
// Both the scalar run and the lane run initialize through here.
func (e *Engine) initAt(x0 []float64, t0 float64) {
	n := e.c.N()
	copy(e.x, x0)
	e.evalAt(t0)
	copy(e.qPrev, e.ev.Q)
	if e.opts.Method == TRAP {
		for i := 0; i < n; i++ {
			e.qdotPrev[i] = -(e.ev.F[i] + e.ev.Src[i])
		}
	}
	for _, v := range [][]float64{e.ms, e.mh, e.cms, e.cmh} {
		clear(v)
	}
	if e.opts.Skews && e.opts.Method == TRAP {
		e.zeroZ()
		e.ev.AddSkewSens(t0, e.zsVec, e.zhVec)
		for i := 0; i < n; i++ {
			e.msdotPrev[i] = -e.zsVec[i]
			e.mhdot[i] = -e.zhVec[i]
		}
	}
}

// evalAt wraps the device evaluation with optional wall-clock attribution.
func (e *Engine) evalAt(t float64) {
	if !e.timed {
		e.ev.At(e.x, t)
		return
	}
	t0 := time.Now()
	e.ev.At(e.x, t)
	e.stats.DeviceEval += time.Since(t0)
}

// factorize assembles J = α·C + G from the last evaluation's stamps and
// factors its free unknowns, with optional LU wall-clock attribution and
// pprof phase labels.
func (e *Engine) factorize(alpha float64) error {
	if e.prof.active {
		pprof.SetGoroutineLabels(e.prof.lu)
		defer pprof.SetGoroutineLabels(e.prof.transient)
	}
	var t0 time.Time
	if e.timed {
		t0 = time.Now()
	}
	err := e.jac.Factor(alpha, 0)
	e.stats.Factorizations++
	if e.timed {
		e.stats.LU += time.Since(t0)
	}
	return err
}

// solveNewton back-substitutes the residual for the Newton update, timed
// and labeled like factorize.
func (e *Engine) solveNewton() {
	if e.prof.active {
		pprof.SetGoroutineLabels(e.prof.lu)
		defer pprof.SetGoroutineLabels(e.prof.transient)
	}
	if !e.timed {
		e.jac.Solve(e.r, e.dx)
		return
	}
	t0 := time.Now()
	e.jac.Solve(e.r, e.dx)
	e.stats.LU += time.Since(t0)
}

func (e *Engine) zeroZ() {
	for i := range e.zsVec {
		e.zsVec[i] = 0
		e.zhVec[i] = 0
	}
}

// step advances the state from t0 to t1, updating x, qPrev, C·m and the
// sensitivities in place.
func (e *Engine) step(t0, t1 float64) error {
	n := e.c.N()
	dt := t1 - t0
	var alpha float64 // J = alpha·C + G
	if e.opts.Method == TRAP {
		alpha = 2 / dt
	} else {
		alpha = 1 / dt
	}
	numNodes := e.c.NumNodes()
	converged := false
	iters := 0
	for iter := 0; iter < e.opts.MaxNewtonIter; iter++ {
		e.evalAt(t1)
		switch e.opts.Method {
		case TRAP:
			for i := 0; i < n; i++ {
				e.r[i] = alpha*(e.ev.Q[i]-e.qPrev[i]) - e.qdotPrev[i] + e.ev.F[i] + e.ev.Src[i]
			}
		default: // BE
			for i := 0; i < n; i++ {
				e.r[i] = alpha*(e.ev.Q[i]-e.qPrev[i]) + e.ev.F[i] + e.ev.Src[i]
			}
		}
		if err := e.factorize(alpha); err != nil {
			return fmt.Errorf("transient: Jacobian factorization failed: %w", err)
		}
		e.solveNewton()
		e.stats.NewtonIters++
		iters++
		conv := true
		for i := 0; i < n; i++ {
			if !num.IsFinite(e.dx[i]) {
				return ErrNewtonFailure
			}
			e.x[i] -= e.dx[i]
			atol := e.opts.VTol
			if i >= numNodes {
				atol = e.opts.ITol
			}
			if math.Abs(e.dx[i]) > atol+e.opts.RelTol*math.Abs(e.x[i]) {
				conv = false
			}
		}
		if conv {
			converged = true
			break
		}
	}
	if !converged {
		return ErrNewtonFailure
	}
	if e.hist {
		e.newtonHist.Observe(iters, 1)
	}

	if e.opts.Skews {
		// The sensitivity solves back-substitute against a factorization of
		// α·C + G at the converged state.
		e.evalAt(t1)
		if err := e.factorize(alpha); err != nil {
			return fmt.Errorf("transient: converged-state factorization failed: %w", err)
		}

		e.zeroZ()
		e.ev.AddSkewSens(t1, e.zsVec, e.zhVec)
		var t0 time.Time
		if e.timed {
			t0 = time.Now()
		}
		switch e.opts.Method {
		case TRAP:
			e.sensTrap(alpha)
		default:
			e.sensBE(alpha)
		}
		if e.timed {
			e.stats.Sens += time.Since(t0)
		}
		// The sensitivity solves back-substitute against the factorization
		// above — no factorization of their own.
		e.stats.SensFactorizationsReused++
	}
	// With Skews off there is nothing to rebuild: the last Newton evaluation
	// already carries Q (and, for TRAP, F+Src) within the convergence
	// tolerance of the accepted state, so the converged-state eval and
	// factorization are elided entirely.

	if e.opts.Method == TRAP {
		for i := 0; i < n; i++ {
			e.qdotPrev[i] = alpha*(e.ev.Q[i]-e.qPrev[i]) - e.qdotPrev[i]
		}
	}
	copy(e.qPrev, e.ev.Q)
	return nil
}

// sensBE advances the BE-discretized sensitivities (paper eq. (11)/(13)):
// (C/Δt + G)·m = (C_prev/Δt)·m_prev − ∂src/∂τ. The solves back-substitute
// against the engine's converged-state factorization, and C·m is kept for
// the next step's right-hand side.
func (e *Engine) sensBE(alpha float64) {
	e.sensBEOne(alpha, e.ms, e.cms, e.zsVec)
	e.sensBEOne(alpha, e.mh, e.cmh, e.zhVec)
	e.stats.SensSolves += 2
}

func (e *Engine) sensBEOne(alpha float64, m, cm, z []float64) {
	for i := range e.rhsS {
		e.rhsS[i] = alpha*cm[i] - z[i]
	}
	e.jac.Solve(e.rhsS, m)
	e.ev.MulC(m, cm)
}

// sensTrap advances the TRAP-discretized sensitivities:
// (2C/Δt + G)·m = (2C_prev/Δt)·m_prev + mdot_prev − ∂src/∂τ, with the
// derivative memory mdot = d(q̇)/dτ propagated like q̇ itself.
func (e *Engine) sensTrap(alpha float64) {
	e.sensTrapOne(alpha, e.ms, e.cms, e.msdotPrev, e.zsVec)
	e.sensTrapOne(alpha, e.mh, e.cmh, e.mhdot, e.zhVec)
	e.stats.SensSolves += 2
}

func (e *Engine) sensTrapOne(alpha float64, m, cm, mdot, z []float64) {
	for i := range e.rhsS {
		e.rhsS[i] = alpha*cm[i] + mdot[i] - z[i]
	}
	e.jac.Solve(e.rhsS, m)
	e.ev.MulC(m, e.scr) // C_new·m_new
	for i, v := range e.scr {
		mdot[i] = alpha*(v-cm[i]) - mdot[i]
		cm[i] = v
	}
}
