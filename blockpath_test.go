package latchchar

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestBlockEvalMatchesScalarOnDecks is the block-transient exactness table:
// for every example netlist deck, EvalBlock at block sizes 1, 2, 4 and 8
// must reproduce the scalar path's state-transition values within a 3 µV
// gate. The probe points are the deck's own characterized contour — the
// operating region the trace loop actually feeds the kernel. One evaluator
// serves both paths, so calibration and grid are identical and the
// comparison isolates the block kernel.
func TestBlockEvalMatchesScalarOnDecks(t *testing.T) {
	const gate = 3e-6
	decks, err := filepath.Glob(filepath.Join("examples", "netlists", "*.cir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decks) == 0 {
		t.Fatal("no example decks found")
	}

	for _, path := range decks {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			deck, err := ParseNetlistString(string(src))
			if err != nil {
				t.Fatal(err)
			}
			cell := deck.Cell(name)
			res, err := Characterize(cell, Options{
				Points:         8,
				BothDirections: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts := res.Contour.Points
			if len(pts) > 8 {
				pts = pts[:8]
			}
			if len(pts) < 4 {
				t.Fatalf("deck traced only %d contour points", len(pts))
			}
			ev, err := NewEvaluator(cell, EvalConfig{})
			if err != nil {
				t.Fatal(err)
			}

			want := make([]float64, len(pts))
			for j, p := range pts {
				if want[j], err = ev.Eval(p.TauS, p.TauH); err != nil {
					t.Fatalf("scalar eval (%g, %g): %v", p.TauS, p.TauH, err)
				}
			}

			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("block=%d", k), func(t *testing.T) {
					var worst float64
					for lo := 0; lo < len(pts); lo += k {
						hi := lo + k
						if hi > len(pts) {
							hi = len(pts)
						}
						tauS := make([]float64, 0, k)
						tauH := make([]float64, 0, k)
						for _, p := range pts[lo:hi] {
							tauS = append(tauS, p.TauS)
							tauH = append(tauH, p.TauH)
						}
						got, err := ev.EvalBlock(tauS, tauH)
						if err != nil {
							t.Fatalf("block eval points [%d:%d]: %v", lo, hi, err)
						}
						for i, v := range got {
							if d := math.Abs(v - want[lo+i]); d > worst {
								worst = d
							}
						}
					}
					if worst > gate {
						t.Errorf("block size %d deviates %.3g V from the scalar path (gate %.3g V)",
							k, worst, gate)
					}
					t.Logf("block size %d: worst |Δh| %.3g V over %d points", k, worst, len(pts))
				})
			}

			// The gradient block path must agree with scalar EvalGrad too:
			// h within the same gate, sensitivities to ~0.1% relative (they
			// feed the Newton corrector, not the accepted contour).
			h0, ds0, dh0, err := ev.EvalGrad(pts[0].TauS, pts[0].TauH)
			if err != nil {
				t.Fatal(err)
			}
			hb, dsb, dhb, errs, err := ev.EvalGradBlock(
				[]float64{pts[0].TauS, pts[1].TauS}, []float64{pts[0].TauH, pts[1].TauH})
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range errs {
				if e != nil {
					t.Fatalf("grad block lane %d: %v", i, e)
				}
			}
			if d := math.Abs(hb[0] - h0); d > gate {
				t.Errorf("grad block h deviates %.3g V from scalar", d)
			}
			relOK := func(got, want float64) bool {
				return math.Abs(got-want) <= 1e-3*math.Max(math.Abs(want), 1e-12)
			}
			if !relOK(dsb[0], ds0) || !relOK(dhb[0], dh0) {
				t.Errorf("grad block sensitivities (%g, %g) deviate from scalar (%g, %g)",
					dsb[0], dhb[0], ds0, dh0)
			}
		})
	}
}

// TestBlockTraceAccuracyGate holds the block-corrected trace loop to the
// same acceptance bar as the scalar path: every contour point produced
// with Block-wide lookahead bundles must satisfy the exact state-transition
// equation within 3 µV.
func TestBlockTraceAccuracyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization")
	}
	const hGate = 3e-6
	cell, err := CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Characterize(cell, Options{
		Points:         10,
		BothDirections: true,
		Block:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contour.Points) < 10 {
		t.Fatalf("block trace produced only %d contour points", len(res.Contour.Points))
	}

	ev, err := NewEvaluator(cell, EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, p := range res.Contour.Points {
		h, err := ev.Eval(p.TauS, p.TauH)
		if err != nil {
			t.Fatal(err)
		}
		if a := math.Abs(h); a > worst {
			worst = a
		}
	}
	if worst > hGate {
		t.Errorf("block-traced contour violates the exact state-transition equation by %.3g V (gate %.3g V)",
			worst, hGate)
	}
	t.Logf("%d contour points, worst |h_exact| %.3g V, shared steps %d, peel-offs %d",
		len(res.Contour.Points), worst, res.Stats.BlockSharedSteps, res.Stats.BlockPeelOffs)
}
