package latchchar

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// TestCharacterizeBitwiseDeterministic reruns the same characterization ten
// times on fresh engines, alternating Parallelism 1 and 4, and requires
// bitwise-identical contours: same point count and the same bits in every
// τs, τh, h and gradient component. It covers both the default evaluator
// and DefaultFastPath(), which must resolve to the same exact solver. Under
// the race detector, which slows the solver about twentyfold, it makes four
// runs (two at each Parallelism) so the package stays well inside go
// test's default ten-minute timeout; ten runs pass there too, in ~5 min.
func TestCharacterizeBitwiseDeterministic(t *testing.T) {
	runs := 10
	if raceEnabled {
		runs = 4
	}
	for _, name := range []string{"tspc", "c2mos"} {
		for _, cfg := range []struct {
			mode string
			eval EvalConfig
		}{
			{"default", EvalConfig{}},
			{"fast-path", DefaultFastPath()},
		} {
			t.Run(name+"/"+cfg.mode, func(t *testing.T) {
				cell, err := CellByName(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Points: 25, BothDirections: true, Eval: cfg.eval}
				var first []ContourPoint
				for run := 0; run < runs; run++ {
					par := 1 + 3*(run%2)
					pts, err := characterizeOn(par, cell, opts)
					if err != nil {
						t.Fatalf("run %d (parallelism %d): %v", run, par, err)
					}
					if run == 0 {
						first = pts
						continue
					}
					if err := sameBits(first, pts); err != nil {
						t.Fatalf("run %d (parallelism %d) differs from run 0: %v", run, par, err)
					}
				}
			})
		}
	}
}

// characterizeOn characterizes cell on a fresh engine with the given
// worker bound, so no calibration or result cache carries between runs.
func characterizeOn(parallelism int, cell *Cell, opts Options) ([]ContourPoint, error) {
	eng, err := NewEngine(EngineOptions{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	res, err := eng.Characterize(context.Background(), cell, opts)
	if err != nil {
		return nil, err
	}
	return res.Contour.Points, nil
}

// sameBits reports the first contour point whose fields differ in any bit.
func sameBits(want, got []ContourPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		for _, f := range []struct {
			name string
			w, g float64
		}{
			{"τs", w.TauS, g.TauS}, {"τh", w.TauH, g.TauH}, {"h", w.H, g.H},
			{"∂h/∂τs", w.DhdS, g.DhdS}, {"∂h/∂τh", w.DhdH, g.DhdH},
		} {
			if math.Float64bits(f.w) != math.Float64bits(f.g) {
				return fmt.Errorf("point %d %s = %v, want %v", i, f.name, f.g, f.w)
			}
		}
		if w.CorrectorIters != g.CorrectorIters {
			return fmt.Errorf("point %d corrector iterations %d, want %d", i, g.CorrectorIters, w.CorrectorIters)
		}
	}
	return nil
}

// TestFastPathAccuracyGate keeps the STE-residual gate on DefaultFastPath(),
// the one fast-path name the public API still carries: characterize TSPC
// and C²MOS with it and re-evaluate every contour point with a default
// evaluator. Each point must satisfy the state-transition equation within
// a small multiple of MPNR's HTol (1e-6 V).
func TestFastPathAccuracyGate(t *testing.T) {
	const hGate = 3e-6
	for _, name := range []string{"tspc", "c2mos"} {
		t.Run(name, func(t *testing.T) {
			cell, err := CellByName(name)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Characterize(cell, Options{Points: 10, BothDirections: true, Eval: DefaultFastPath()})
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(cell, EvalConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var worst float64
			for _, p := range fast.Contour.Points {
				h, err := ev.Eval(p.TauS, p.TauH)
				if err != nil {
					t.Fatal(err)
				}
				worst = math.Max(worst, math.Abs(h))
			}
			if worst > hGate {
				t.Errorf("DefaultFastPath contour violates the state-transition equation by %.3g V (gate %.3g V)",
					worst, hGate)
			}
			t.Logf("%d contour points, worst |h| %.3g V", len(fast.Contour.Points), worst)
		})
	}
}
