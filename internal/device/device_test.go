package device

import (
	"math"
	"math/rand"
	"testing"

	"latchchar/internal/circuit"
	"latchchar/internal/num"
	"latchchar/internal/wave"
)

func testModel(t MOSType) MOSModel {
	return MOSModel{
		Type:   t,
		VT0:    0.43,
		KP:     115e-6,
		Lambda: 0.06,
		Cox:    6e-3,
		CJ:     1e-9,
	}
}

func TestMOSModelValidate(t *testing.T) {
	good := testModel(NMOS)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.VT0 = 0
	if bad.Validate() == nil {
		t.Error("zero VT0 accepted")
	}
	bad = good
	bad.KP = -1
	if bad.Validate() == nil {
		t.Error("negative KP accepted")
	}
	bad = good
	bad.Lambda = -0.1
	if bad.Validate() == nil {
		t.Error("negative lambda accepted")
	}
	bad = good
	bad.CJ = -1
	if bad.Validate() == nil {
		t.Error("negative CJ accepted")
	}
}

func TestNewMOSFETValidation(t *testing.T) {
	c := circuit.New()
	d, g, s := c.Node("d"), c.Node("g"), c.Node("s")
	if _, err := NewMOSFET("m1", d, g, s, circuit.Ground, testModel(NMOS), 0, 1e-6); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewMOSFET("m1", d, g, s, circuit.Ground, MOSModel{}, 1e-6, 1e-6); err == nil {
		t.Error("invalid model accepted")
	}
}

func mkMOS(t *testing.T, typ MOSType) *MOSFET {
	t.Helper()
	c := circuit.New()
	m, err := NewMOSFET("m", c.Node("d"), c.Node("g"), c.Node("s"), circuit.Ground, testModel(typ), 4e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIdsCutoff(t *testing.T) {
	m := mkMOS(t, NMOS)
	id, gm, gds := m.ids(0.2, 1.0) // vgs < VT0
	if id != 0 || gm != 0 || gds != 0 {
		t.Errorf("cutoff should carry no current: %v %v %v", id, gm, gds)
	}
}

func TestIdsSaturation(t *testing.T) {
	m := mkMOS(t, NMOS)
	vgs, vds := 1.5, 2.0 // vov = 1.07 < vds
	id, gm, gds := m.ids(vgs, vds)
	beta := m.Model.KP * m.W / m.L
	vov := vgs - m.Model.VT0
	wantID := beta / 2 * vov * vov * (1 + m.Model.Lambda*vds)
	if !num.WithinRel(id, wantID, 1e-12) {
		t.Errorf("id = %v, want %v", id, wantID)
	}
	if gm <= 0 || gds <= 0 {
		t.Errorf("saturation conductances must be positive: gm=%v gds=%v", gm, gds)
	}
}

func TestIdsTriode(t *testing.T) {
	m := mkMOS(t, NMOS)
	vgs, vds := 2.5, 0.1 // deep triode
	id, gm, gds := m.ids(vgs, vds)
	beta := m.Model.KP * m.W / m.L
	vov := vgs - m.Model.VT0
	wantID := beta * (vov*vds - vds*vds/2) * (1 + m.Model.Lambda*vds)
	if !num.WithinRel(id, wantID, 1e-12) {
		t.Errorf("id = %v, want %v", id, wantID)
	}
	if gds <= gm {
		t.Errorf("deep triode should have gds > gm: gm=%v gds=%v", gm, gds)
	}
}

func TestIdsContinuousAtSaturationBoundary(t *testing.T) {
	m := mkMOS(t, NMOS)
	vgs := 1.5
	vov := vgs - m.Model.VT0
	const eps = 1e-9
	idA, gmA, gdsA := m.ids(vgs, vov-eps)
	idB, gmB, gdsB := m.ids(vgs, vov+eps)
	if !num.ApproxEqual(idA, idB, 1e-6, 1e-15) {
		t.Errorf("id discontinuous: %v vs %v", idA, idB)
	}
	if !num.ApproxEqual(gmA, gmB, 1e-6, 1e-12) {
		t.Errorf("gm discontinuous: %v vs %v", gmA, gmB)
	}
	if !num.ApproxEqual(gdsA, gdsB, 1e-6, 1e-12) {
		t.Errorf("gds discontinuous: %v vs %v", gdsA, gdsB)
	}
}

func TestIdsDerivativesMatchFiniteDifference(t *testing.T) {
	m := mkMOS(t, NMOS)
	const h = 1e-7
	for _, pt := range [][2]float64{{1.0, 0.2}, {1.5, 2.0}, {2.5, 0.05}, {0.6, 1.0}} {
		vgs, vds := pt[0], pt[1]
		_, gm, gds := m.ids(vgs, vds)
		ip, _, _ := m.ids(vgs+h, vds)
		im, _, _ := m.ids(vgs-h, vds)
		if fd := (ip - im) / (2 * h); !num.ApproxEqual(fd, gm, 1e-5, 1e-10) {
			t.Errorf("gm at (%v,%v): fd=%v analytic=%v", vgs, vds, fd, gm)
		}
		ip, _, _ = m.ids(vgs, vds+h)
		im, _, _ = m.ids(vgs, vds-h)
		if fd := (ip - im) / (2 * h); !num.ApproxEqual(fd, gds, 1e-5, 1e-10) {
			t.Errorf("gds at (%v,%v): fd=%v analytic=%v", vgs, vds, fd, gds)
		}
	}
}

// buildTestbench creates a circuit containing the device under test between
// three free nodes so states can be imposed directly on the MNA unknowns.
func stampConsistency(t *testing.T, name string, build func(c *circuit.Circuit) error, states int, seed int64) {
	t.Helper()
	c := circuit.New()
	if err := build(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	evFD := c.NewEval()
	n := c.N()
	rng := rand.New(rand.NewSource(seed))
	const h = 1e-6
	for trial := 0; trial < states; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*5 - 1 // −1 .. 4 V, current unknowns too
		}
		tt := rng.Float64() * 1e-9
		ev.At(x, tt)
		cm, gm := ev.Jacobians()
		for j := 0; j < n; j++ {
			xp := append([]float64(nil), x...)
			xp[j] += h
			evFD.At(xp, tt)
			fp := append([]float64(nil), evFD.F...)
			qp := append([]float64(nil), evFD.Q...)
			xm := append([]float64(nil), x...)
			xm[j] -= h
			evFD.At(xm, tt)
			for i := 0; i < n; i++ {
				gfd := (fp[i] - evFD.F[i]) / (2 * h)
				if !num.ApproxEqual(gfd, gm.At(i, j), 2e-3, 1e-7) {
					t.Errorf("%s trial %d: G(%d,%d) fd=%v stamped=%v", name, trial, i, j, gfd, gm.At(i, j))
				}
				cfd := (qp[i] - evFD.Q[i]) / (2 * h)
				if !num.ApproxEqual(cfd, cm.At(i, j), 2e-3, 1e-16) {
					t.Errorf("%s trial %d: C(%d,%d) fd=%v stamped=%v", name, trial, i, j, cfd, cm.At(i, j))
				}
			}
		}
	}
}

func TestResistorStampConsistency(t *testing.T) {
	stampConsistency(t, "resistor", func(c *circuit.Circuit) error {
		r, err := NewResistor("r1", c.Node("a"), c.Node("b"), 1e3)
		if err != nil {
			return err
		}
		c.AddDevice(r)
		return nil
	}, 3, 1)
}

func TestCapacitorStampConsistency(t *testing.T) {
	stampConsistency(t, "capacitor", func(c *circuit.Circuit) error {
		cp, err := NewCapacitor("c1", c.Node("a"), c.Node("b"), 1e-14)
		if err != nil {
			return err
		}
		c.AddDevice(cp)
		return nil
	}, 3, 2)
}

func TestVSourceStampConsistency(t *testing.T) {
	stampConsistency(t, "vsource", func(c *circuit.Circuit) error {
		v, err := NewVSource("v1", c.Node("a"), circuit.Ground, wave.DC(2.5), RoleSupply)
		if err != nil {
			return err
		}
		c.AddDevice(v)
		// A resistor keeps node b referenced.
		r, err := NewResistor("r1", c.Node("a"), c.Node("b"), 1e4)
		if err != nil {
			return err
		}
		c.AddDevice(r)
		return nil
	}, 3, 3)
}

func TestMOSFETStampConsistencyNMOS(t *testing.T) {
	stampConsistency(t, "nmos", func(c *circuit.Circuit) error {
		m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), circuit.Ground, testModel(NMOS), 4e-6, 0.25e-6)
		if err != nil {
			return err
		}
		c.AddDevice(m)
		return nil
	}, 8, 4)
}

func TestMOSFETStampConsistencyPMOS(t *testing.T) {
	stampConsistency(t, "pmos", func(c *circuit.Circuit) error {
		m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), c.Node("vdd"), testModel(PMOS), 8e-6, 0.25e-6)
		if err != nil {
			return err
		}
		c.AddDevice(m)
		return nil
	}, 8, 5)
}

func TestMOSFETChargeConservation(t *testing.T) {
	// Total stamped charge must be zero when no capacitor touches ground.
	c := circuit.New()
	m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), c.Node("b"), testModel(NMOS), 4e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	c.AddDevice(m)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	x := []float64{1.2, 0.7, -0.3, 0.1}
	ev.At(x, 0)
	sum := 0.0
	for _, q := range ev.Q {
		sum += q
	}
	if math.Abs(sum) > 1e-20 {
		t.Errorf("charge not conserved: %v", sum)
	}
}

func TestMOSFETCurrentDirectionNMOSvsPMOS(t *testing.T) {
	// NMOS with vgs > VT, vds > 0 conducts into the drain (positive f at
	// drain row means current leaving the node through the device is
	// positive ... f_d = +Id: current flows d→s internally).
	eval := func(typ MOSType, x []float64) []float64 {
		c := circuit.New()
		c.Gmin = 0 // keep assertions exact
		m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), circuit.Ground, testModel(typ), 4e-6, 0.25e-6)
		if err != nil {
			t.Fatal(err)
		}
		c.AddDevice(m)
		if err := c.Finalize(); err != nil {
			t.Fatal(err)
		}
		ev := c.NewEval()
		ev.At(x, 0)
		return append([]float64(nil), ev.F...)
	}
	// Nodes: d=0, g=1, s=2.
	fn := eval(NMOS, []float64{2.5, 2.5, 0})
	if fn[0] <= 0 {
		t.Errorf("NMOS on: f[d] = %v, want > 0", fn[0])
	}
	if !num.ApproxEqual(fn[0], -fn[2], 1e-9, 1e-15) {
		t.Errorf("KCL: f[d]=%v f[s]=%v", fn[0], fn[2])
	}
	// PMOS with source at 2.5, gate 0, drain 0: conducts, current into the
	// drain node is negative (flows source→drain, out of the drain row).
	fp := eval(PMOS, []float64{0, 0, 2.5})
	if fp[0] >= 0 {
		t.Errorf("PMOS on: f[d] = %v, want < 0", fp[0])
	}
	// Off states.
	if f := eval(NMOS, []float64{2.5, 0, 0}); f[0] != 0 {
		t.Errorf("NMOS off but f[d] = %v", f[0])
	}
	if f := eval(PMOS, []float64{0, 2.5, 2.5}); f[0] != 0 {
		t.Errorf("PMOS off but f[d] = %v", f[0])
	}
}

func TestMOSFETSourceDrainSwapSymmetry(t *testing.T) {
	// The channel is symmetric in this model: swapping drain/source voltages
	// reverses the current exactly (lambda applies to |vds| in the
	// effective frame).
	c := circuit.New()
	c.Gmin = 0 // keep the symmetry exact
	m, err := NewMOSFET("m1", c.Node("d"), c.Node("g"), c.Node("s"), circuit.Ground, testModel(NMOS), 4e-6, 0.25e-6)
	if err != nil {
		t.Fatal(err)
	}
	c.AddDevice(m)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	ev.At([]float64{1.8, 2.5, 0.3}, 0)
	fwd := ev.F[0]
	ev.At([]float64{0.3, 2.5, 1.8}, 0)
	rev := ev.F[0]
	if !num.ApproxEqual(fwd, -rev, 1e-12, 1e-18) {
		t.Errorf("swap asymmetric: %v vs %v", fwd, rev)
	}
}

func TestResistorValidation(t *testing.T) {
	if _, err := NewResistor("r", 0, 1, 0); err == nil {
		t.Error("zero resistance accepted")
	}
	if _, err := NewCapacitor("c", 0, 1, -1); err == nil {
		t.Error("negative capacitance accepted")
	}
}

func TestVSourceRoles(t *testing.T) {
	if RoleSupply.String() != "supply" || RoleClock.String() != "clock" || RoleData.String() != "data" {
		t.Error("role strings wrong")
	}
	if SourceRole(42).String() == "" {
		t.Error("unknown role should format")
	}
	if _, err := NewVSource("v", 0, circuit.Ground, nil, RoleSupply); err == nil {
		t.Error("nil waveform accepted")
	}
	// Data role requires skew derivatives.
	if _, err := NewVSource("v", 0, circuit.Ground, wave.DC(1), RoleData); err == nil {
		t.Error("data source without skew derivatives accepted")
	}
	dp, err := wave.NewDataPulse(11.05e-9, 0, 2.5, 0.1e-9, 0.1e-9, wave.RampSmooth)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVSource("v", 0, circuit.Ground, dp, RoleData); err != nil {
		t.Errorf("valid data source rejected: %v", err)
	}
}

func TestVSourceBranchEquationAndSens(t *testing.T) {
	c := circuit.New()
	dp, err := wave.NewDataPulse(1e-9, 0, 2.5, 0.1e-9, 0.1e-9, wave.RampSmooth)
	if err != nil {
		t.Fatal(err)
	}
	dp.SetSkews(100e-12, 100e-12)
	v, err := NewVSource("vd", c.Node("a"), circuit.Ground, dp, RoleData)
	if err != nil {
		t.Fatal(err)
	}
	c.AddDevice(v)
	r, err := NewResistor("r", c.Node("a"), circuit.Ground, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	c.AddDevice(r)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	ev := c.NewEval()
	// Unknowns: node a (=0), branch (=1).
	x := []float64{1.7, -0.4}
	tt := 0.93e-9 // mid leading ramp (50% at 0.9 ns)
	ev.At(x, tt)
	// Branch row: f = v(a), src = −V(t).
	if !num.ApproxEqual(ev.F[1], 1.7, 1e-12, 0) {
		t.Errorf("branch f = %v", ev.F[1])
	}
	if !num.ApproxEqual(ev.Src[1], -dp.V(tt), 1e-12, 0) {
		t.Errorf("branch src = %v, want %v", ev.Src[1], -dp.V(tt))
	}
	// Node row: f gets branch current plus resistor current plus gmin.
	wantNode := -0.4 + 1.7/1e3 + 1e-12*1.7
	if !num.ApproxEqual(ev.F[0], wantNode, 1e-9, 1e-15) {
		t.Errorf("node f = %v, want %v", ev.F[0], wantNode)
	}
	// Skew sensitivity lands on the branch row with sign −z.
	zs := make([]float64, 2)
	zh := make([]float64, 2)
	ev.AddSkewSens(tt, zs, zh)
	if !num.ApproxEqual(zs[1], -dp.DTauS(tt), 1e-12, 0) || zs[0] != 0 {
		t.Errorf("zs = %v", zs)
	}
	if !num.ApproxEqual(zh[1], -dp.DTauH(tt), 1e-12, 0) {
		t.Errorf("zh = %v", zh)
	}
}
