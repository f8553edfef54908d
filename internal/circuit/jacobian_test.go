package circuit_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/device"
	"latchchar/internal/linalg"
	"latchchar/internal/registers"
	"latchchar/internal/wave"
)

func cellCircuit(cell *registers.Cell) func(t *testing.T) *circuit.Circuit {
	return func(t *testing.T) *circuit.Circuit {
		inst, err := cell.Build()
		if err != nil {
			t.Fatal(err)
		}
		return inst.Circuit
	}
}

// deck finalizes a circuit of two-terminal elements given as
// (kind, p, n, value) with kind 'R', 'C' or 'V' (DC source, p positive).
func deck(elems ...[4]any) func(t *testing.T) *circuit.Circuit {
	return func(t *testing.T) *circuit.Circuit {
		c := circuit.New()
		for k, e := range elems {
			p, n, v := c.Node(e[1].(string)), c.Node(e[2].(string)), e[3].(float64)
			var d circuit.Device
			var err error
			switch e[0].(rune) {
			case 'R':
				d, err = device.NewResistor("r", p, n, v)
			case 'C':
				d, err = device.NewCapacitor("c", p, n, v)
			case 'V':
				d, err = device.NewVSource("v", p, n, wave.DC(v), device.RoleSupply)
			}
			if err != nil {
				t.Fatalf("element %d: %v", k, err)
			}
			c.AddDevice(d)
		}
		if err := c.Finalize(); err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// TestJacobianSolveMatchesFullLU is the oracle for the condensed Newton
// solve: at random states, J·x = b solved through circuit.Jacobian, which
// factors only the free unknowns, must equal linalg.SolveLinear on the full
// dense J = α·C + G + g·I_nodes to 1e-12 relative.
func TestJacobianSolveMatchesFullLU(t *testing.T) {
	nl := registers.DefaultProcess()
	nl.NMOS.NLGate, nl.PMOS.NLGate = true, true
	tm := registers.DefaultTiming()
	cases := []struct {
		name          string
		build         func(t *testing.T) *circuit.Circuit
		alpha, gNodes float64
		free          int
	}{
		{"tspc", cellCircuit(registers.TSPC(registers.DefaultProcess(), tm)), 1 / 2e-12, 0, 6},
		{"c2mos", cellCircuit(registers.C2MOS(registers.DefaultProcess(), tm, registers.C2MOSOptions{})), 1 / 2e-12, 0, 6},
		{"tspc nonlinear gate caps", cellCircuit(registers.TSPC(nl, tm)), 1 / 2e-12, 0, 6},
		// V1 floats between a and b; V3 grounds c and V4 (negative
		// terminal on the node) grounds d, both feeding a.
		{"floating source", deck(
			[4]any{'V', "a", "b", 1.0}, [4]any{'R', "a", "0", 1e3}, [4]any{'R', "b", "0", 2e3},
			[4]any{'V', "c", "0", 2.5}, [4]any{'R', "c", "a", 500.0}, [4]any{'C', "b", "0", 1e-14},
			[4]any{'V', "0", "d", 1.2}, [4]any{'R', "d", "a", 800.0},
		), 1 / 1e-12, 0, 3},
		// V1 pins a; V2 (b→a) stacks on it and stays a free unknown.
		{"stacked sources", deck(
			[4]any{'V', "b", "a", 1.0}, [4]any{'V', "a", "0", 1.5},
			[4]any{'R', "b", "0", 1e3}, [4]any{'C', "a", "b", 2e-14},
		), 1 / 1e-12, 0, 2},
		{"dc gmin stepping", cellCircuit(registers.TSPC(registers.DefaultProcess(), tm)), 0, 1e-6, 6},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			if got := c.FreeUnknowns(); got != tc.free {
				t.Errorf("free unknowns = %d, want %d", got, tc.free)
			}
			n := c.N()
			ev := c.NewEval()
			jac := ev.NewJacobian()
			for trial := 0; trial < 5; trial++ {
				x := make([]float64, n)
				for i := range x {
					if i < c.NumNodes() {
						x[i] = rng.Float64()*3 - 0.25
					} else {
						x[i] = (rng.Float64() - 0.5) * 1e-3
					}
				}
				ev.At(x, rng.Float64()*2e-8)
				b := make([]float64, n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				cm, gm := ev.Jacobians()
				full := linalg.NewMatrix(n, n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						full.Set(i, j, tc.alpha*cm.At(i, j)+gm.At(i, j))
					}
					if i < c.NumNodes() {
						full.Add(i, i, tc.gNodes)
					}
				}
				want, err := linalg.SolveLinear(full, b)
				if err != nil {
					t.Fatal(err)
				}
				if err := jac.Factor(tc.alpha, tc.gNodes); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, n)
				jac.Solve(b, got)
				scale := linalg.Vector(want).NormInf()
				for i := range want {
					if d := math.Abs(got[i] - want[i]); d > 1e-12*scale {
						t.Errorf("trial %d: x[%s] = %v, full LU %v (|Δ|/‖x‖ = %.2g)",
							trial, c.NodeName(circuit.UnknownID(i)), got[i], want[i], d/scale)
					}
				}
			}
		})
	}
}

// TestJacobianSingular: two ideal sources on one node make J singular; the
// second source is not condensed, so Factor reports the singularity.
func TestJacobianSingular(t *testing.T) {
	c := deck([4]any{'V', "a", "0", 1.0}, [4]any{'V', "a", "0", 2.0}, [4]any{'R', "a", "0", 1e3})(t)
	ev := c.NewEval()
	ev.At(make([]float64, c.N()), 0)
	if err := ev.NewJacobian().Factor(1e12, 0); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("Factor = %v, want linalg.ErrSingular", err)
	}
}

// TestJacobianNoAllocs: after the first Factor, Newton assembly, factoring
// and solving allocate nothing.
func TestJacobianNoAllocs(t *testing.T) {
	c := cellCircuit(registers.TSPC(registers.DefaultProcess(), registers.DefaultTiming()))(t)
	ev := c.NewEval()
	jac := ev.NewJacobian()
	x, b, dx := make([]float64, c.N()), make([]float64, c.N()), make([]float64, c.N())
	for i := range b {
		b[i] = 1
	}
	allocs := testing.AllocsPerRun(50, func() {
		ev.At(x, 1e-9)
		if err := jac.Factor(1e12, 0); err != nil {
			t.Fatal(err)
		}
		jac.Solve(b, dx)
	})
	if allocs != 0 {
		t.Errorf("At+Factor+Solve allocate %v times per call", allocs)
	}
}
