package transient

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/device"
	"latchchar/internal/solver"
)

// laneWave is a source whose value the lane run's setLane hook swaps
// per lane: constant 0 until t0, then a linear ramp of duration rise up to
// the lane's amplitude *v. Before t0 the output is amplitude-independent,
// so lanes share the exact prefix up to t0.
type laneWave struct {
	v        *float64
	t0, rise float64
}

func (w laneWave) V(t float64) float64 {
	switch {
	case t < w.t0:
		return 0
	case t >= w.t0+w.rise:
		return *w.v
	default:
		return *w.v * (t - w.t0) / w.rise
	}
}

// buildLaneRC creates src -- R -- out -- C -- gnd driven by a laneWave and
// returns the circuit, the output node and the amplitude cell setLane swaps.
func buildLaneRC(t *testing.T, t0, rise float64) (*circuit.Circuit, circuit.UnknownID, *float64) {
	t.Helper()
	amp := new(float64)
	ckt, out := buildRC(t, laneWave{v: amp, t0: t0, rise: rise}, device.RoleSupply, 1e3, 1e-12)
	return ckt, out, amp
}

// runScalarLane integrates the same circuit with a single-lane engine at one
// amplitude, as the reference for the block lanes.
func runScalarLane(t *testing.T, opts Options, t0, rise, amp float64, x0 []float64, g Grid) *Result {
	t.Helper()
	ckt, _, a := buildLaneRC(t, t0, rise)
	*a = amp
	res, err := NewEngine(ckt, opts).Run(x0, g)
	if err != nil {
		t.Fatalf("scalar lane amp=%g: %v", amp, err)
	}
	return res
}

// TestBlockSharedPrefixMatchesScalar advances four lanes whose stimuli are
// identical until t0 and diverge after: the block result must match four
// independent scalar integrations, and the shared prefix must actually have
// saved lane-steps.
func TestBlockSharedPrefixMatchesScalar(t *testing.T) {
	const (
		t0   = 2e-9
		rise = 0.5e-9
	)
	amps := []float64{1.0, 1.5, 2.0, 2.5}
	opts := Options{}

	ckt, _, amp := buildLaneRC(t, t0, rise)
	x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := UniformGrid(0, 4e-9, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(ckt, opts).RunLanes(context.Background(), nil, x0, g, t0, len(amps),
		func(lane int) { *amp = amps[lane] })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("lane errors: %v", res.Errs)
	}
	if res.Stats.BlockSharedSteps == 0 {
		t.Error("no lane-steps saved despite a 2 ns shared prefix")
	}
	if res.Stats.BlockPeelOffs != 0 {
		t.Errorf("%d peel-offs on a clean block", res.Stats.BlockPeelOffs)
	}
	for lane, a := range amps {
		want := runScalarLane(t, opts, t0, rise, a, x0, g)
		for i := range want.X {
			if d := math.Abs(res.X[lane][i] - want.X[i]); d > 3e-6 {
				t.Errorf("lane %d node %d deviates %.3g V from scalar", lane, i, d)
			}
		}
	}
	t.Logf("shared steps %d, factorizations %d",
		res.Stats.BlockSharedSteps, res.Stats.Factorizations)
}

// TestBlockPeelOff poisons one lane's stimulus with NaN: that lane must fail
// with a per-lane error (counted as a peel-off) while the remaining lanes
// converge to the same states as their scalar references. Poisoning lane 0
// checks that the lanes after a failed tail still start from the fork.
func TestBlockPeelOff(t *testing.T) {
	const (
		t0   = 1e-9
		rise = 0.5e-9
	)
	for _, poisoned := range []int{2, 0} {
		amps := []float64{1.0, 1.5, 2.0, 2.5}
		amps[poisoned] = math.NaN()
		opts := Options{}

		ckt, _, amp := buildLaneRC(t, t0, rise)
		x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := UniformGrid(0, 3e-9, 30)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(ckt, opts).RunLanes(context.Background(), nil, x0, g, t0, len(amps),
			func(lane int) { *amp = amps[lane] })
		if err != nil {
			t.Fatalf("poisoned lane %d must not fail the block: %v", poisoned, err)
		}
		if res.Errs[poisoned] == nil {
			t.Fatalf("poisoned lane %d converged on a NaN stimulus", poisoned)
		}
		if !strings.Contains(res.Errs[poisoned].Error(), "lane") {
			t.Errorf("lane error does not name the lane: %v", res.Errs[poisoned])
		}
		if res.Stats.BlockPeelOffs != 1 {
			t.Errorf("peel-offs = %d, want 1", res.Stats.BlockPeelOffs)
		}
		for lane, a := range amps {
			if lane == poisoned {
				continue
			}
			if res.Errs[lane] != nil {
				t.Errorf("healthy lane %d poisoned by its neighbor: %v", lane, res.Errs[lane])
				continue
			}
			want := runScalarLane(t, opts, t0, rise, a, x0, g)
			for i := range want.X {
				if d := math.Abs(res.X[lane][i] - want.X[i]); d > 3e-6 {
					t.Errorf("lane %d node %d deviates %.3g V after peel-off", lane, i, d)
				}
			}
		}
	}
}

// TestBlockDegenerateFullyShared runs a block whose lanes never differ
// (tSplit = +Inf): the shared prefix covers the whole grid and every lane
// must return the reference trajectory.
func TestBlockDegenerateFullyShared(t *testing.T) {
	ckt, _, amp := buildLaneRC(t, 1e-9, 0.5e-9)
	x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := UniformGrid(0, 3e-9, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(ckt, Options{}).RunLanes(context.Background(), nil, x0, g, math.Inf(1), 3,
		func(int) { *amp = 1.0 })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("lane errors: %v", res.Errs)
	}
	for lane := 1; lane < 3; lane++ {
		for i := range res.X[0] {
			if res.X[lane][i] != res.X[0][i] {
				t.Fatalf("fully shared lane %d diverged from the reference", lane)
			}
		}
	}
	// Only the shared prefix executes, so every executed step saves the two
	// other lanes' steps.
	if res.Stats.BlockSharedSteps != 2*res.Stats.Steps {
		t.Errorf("shared steps %d with %d executed lane-steps; the whole grid should have been shared",
			res.Stats.BlockSharedSteps, res.Stats.Steps)
	}
}

// cancelWave is a laneWave that cancels a context the first time it is
// evaluated at or after time at.
type cancelWave struct {
	laneWave
	at     float64
	cancel func()
}

func (w cancelWave) V(t float64) float64 {
	if t >= w.at {
		w.cancel()
	}
	return w.laneWave.V(t)
}

// TestRunLanesCanceled cancels a lane run once inside the shared prefix and
// once at the start of a lane's tail: both must stop with an error wrapping
// ErrCanceled and the cancellation cause.
func TestRunLanesCanceled(t *testing.T) {
	const (
		t0   = 2e-9
		rise = 0.5e-9
	)
	cause := errors.New("deadline from caller")
	g, err := UniformGrid(0, 4e-9, 40)
	if err != nil {
		t.Fatal(err)
	}
	checkCanceled := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, cause) {
			t.Fatalf("err = %v, want one wrapping ErrCanceled and the cause", err)
		}
	}

	t.Run("prefix", func(t *testing.T) {
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		amp := 1.0
		w := cancelWave{laneWave{v: &amp, t0: t0, rise: rise}, t0 / 2, func() { cancel(cause) }}
		ckt, _ := buildRC(t, w, device.RoleSupply, 1e3, 1e-12)
		lanes := 0
		_, err = NewEngine(ckt, Options{}).RunLanes(ctx, nil, make([]float64, ckt.N()), g, t0, 3,
			func(int) { lanes++ })
		checkCanceled(t, err)
		if lanes != 1 {
			t.Errorf("run left the shared prefix before stopping: setLane called %d times", lanes)
		}
	})

	t.Run("tail", func(t *testing.T) {
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		ckt, _, amp := buildLaneRC(t, t0, rise)
		x0, _, err := solver.DCOperatingPoint(ckt, 0, nil, solver.DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewEngine(ckt, Options{}).RunLanes(ctx, nil, x0, g, t0, 3, func(lane int) {
			*amp = 1 + float64(lane)
			if lane == 1 {
				cancel(cause)
			}
		})
		checkCanceled(t, err)
	})
}

// TestRunLanesRejectsBadArguments checks that a lane run without lanes, or
// with probes requested, fails with an error instead of running.
func TestRunLanesRejectsBadArguments(t *testing.T) {
	ckt, out, _ := buildLaneRC(t, 1e-9, 0.5e-9)
	g, err := UniformGrid(0, 3e-9, 30)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, ckt.N())
	noLane := func(int) {}
	for _, k := range []int{0, -1} {
		if _, err := NewEngine(ckt, Options{}).RunLanes(context.Background(), nil, x0, g, 1e-9, k, noLane); err == nil {
			t.Errorf("k=%d: lane run accepted", k)
		}
	}
	probed := NewEngine(ckt, Options{Probes: []circuit.UnknownID{out}})
	if _, err := probed.RunLanes(context.Background(), nil, x0, g, 1e-9, 2, noLane); err == nil {
		t.Error("lane run accepted Options.Probes")
	}
}
