package device

import (
	"math"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/num"
)

func nlModel(t MOSType) MOSModel {
	m := testModel(t)
	m.NLGate = true
	return m
}

func TestNlRampIntLimitsAndContinuity(t *testing.T) {
	const d = 0.3
	if nlRampInt(d, -1) != 0 || nlRampInt(d, 0) != 0 {
		t.Error("below threshold must carry no channel charge")
	}
	// Far above the window: slope 1, offset δ/2.
	if got := nlRampInt(d, 2.0); math.Abs(got-(2.0-d/2)) > 1e-15 {
		t.Errorf("asymptote: %v", got)
	}
	// Continuity at the window edges.
	if math.Abs(nlRampInt(d, d)-nlRampInt(d, d+1e-12)) > 1e-11 {
		t.Error("discontinuous at x = δ")
	}
	if nlRampInt(d, 1e-12) > 1e-11 {
		t.Error("discontinuous at x = 0")
	}
	// Monotone.
	prev := -1.0
	for x := -0.1; x <= 0.6; x += 0.01 {
		v := nlRampInt(d, x)
		if v < prev {
			t.Fatalf("not monotone at %v", x)
		}
		prev = v
	}
}

func TestNlRampIntDerivativeIsSmoothstep(t *testing.T) {
	const d = 0.3
	const h = 1e-7
	for _, x := range []float64{0.05, 0.15, 0.25, 0.29, 0.4} {
		fd := (nlRampInt(d, x+h) - nlRampInt(d, x-h)) / (2 * h)
		want := num.Smoothstep(0, d, x)
		if !num.ApproxEqual(fd, want, 1e-5, 1e-6) {
			t.Errorf("x=%v: dΦ/dx = %v, smoothstep = %v", x, fd, want)
		}
	}
}

func TestMOSFETNLGateStampConsistencyNMOS(t *testing.T) {
	stampConsistency(t, "nmos-nlgate", func(c *circuit.Circuit) error {
		m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), circuit.Ground, nlModel(NMOS), 4e-6, 0.25e-6)
		if err != nil {
			return err
		}
		c.AddDevice(m)
		return nil
	}, 8, 21)
}

func TestMOSFETNLGateStampConsistencyPMOS(t *testing.T) {
	stampConsistency(t, "pmos-nlgate", func(c *circuit.Circuit) error {
		m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), c.Node("vdd"), nlModel(PMOS), 8e-6, 0.25e-6)
		if err != nil {
			return err
		}
		c.AddDevice(m)
		return nil
	}, 8, 22)
}

// TestNLGateCapacitanceRegions verifies the physical behavior: the gate
// capacitance in cutoff is the overlap value only, and grows to overlap +
// channel share in strong inversion.
func TestNLGateCapacitanceRegions(t *testing.T) {
	c := circuit.New()
	m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), circuit.Ground, nlModel(NMOS), 4e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	c.AddDevice(m)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	cox := m.Model.Cox * m.W * m.L
	// Cutoff: vg = 0, vs = 0 → C(g,g) ≈ 2 overlaps (gs + gd).
	ev.At([]float64{0, 0, 0}, 0)
	cm, _ := ev.Jacobians()
	cCut := cm.At(1, 1) // node g has index 1
	if !num.WithinRel(cCut, 2*0.1*cox, 1e-9) {
		t.Errorf("cutoff C(g,g) = %v, want %v", cCut, 2*0.1*cox)
	}
	// Strong inversion: vg = 2.5 with d, s at 0.
	ev.At([]float64{0, 2.5, 0}, 0)
	cm, _ = ev.Jacobians()
	cInv := cm.At(1, 1)
	want := 2 * (0.1 + 0.4) * cox
	if !num.WithinRel(cInv, want, 1e-9) {
		t.Errorf("inversion C(g,g) = %v, want %v", cInv, want)
	}
	if cInv <= cCut {
		t.Error("gate capacitance must grow with inversion")
	}
}

// TestNLGateChargeConservation: total stamped charge sums to zero (both
// plates stamped symmetrically).
func TestNLGateChargeConservation(t *testing.T) {
	c := circuit.New()
	m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), c.Node("b"), nlModel(NMOS), 4e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	c.AddDevice(m)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	ev.At([]float64{1.7, 2.1, 0.2, 0.0}, 0)
	sum := 0.0
	for _, q := range ev.Q {
		sum += q
	}
	if math.Abs(sum) > 1e-20 {
		t.Errorf("charge not conserved: %v", sum)
	}
}

func TestNLDeltaDefaultApplied(t *testing.T) {
	c := circuit.New()
	mdl := nlModel(NMOS)
	mdl.NLDelta = 0 // must default to 0.3 V
	m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), circuit.Ground, mdl, 4e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	if m.nlgs.dlt != 0.3 {
		t.Errorf("delta = %v", m.nlgs.dlt)
	}
}
