package device

import (
	"fmt"
	"math"

	"latchchar/internal/circuit"
)

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

const (
	// NMOS is an n-channel device.
	NMOS MOSType = iota
	// PMOS is a p-channel device.
	PMOS
)

func (t MOSType) String() string {
	if t == PMOS {
		return "pmos"
	}
	return "nmos"
}

// MOSModel holds the process ("model card") parameters of a level-1
// Shichman-Hodges MOSFET. Voltages and thresholds are expressed in the
// device's own polarity: VT0 and KP are positive for both types.
type MOSModel struct {
	Type MOSType
	// VT0 is the zero-bias threshold voltage magnitude (V).
	VT0 float64
	// KP is the process transconductance µ·Cox (A/V²).
	KP float64
	// Lambda is the channel-length modulation coefficient (1/V).
	Lambda float64
	// Cox is the gate oxide capacitance per area (F/m²); the intrinsic gate
	// capacitance Cox·W·L is split equally between Cgs and Cgd.
	Cox float64
	// CJ is the junction capacitance per gate width (F/m), applied from
	// drain and source to the bulk node.
	CJ float64
	// NLGate selects the nonlinear (Meyer-style) gate capacitance model:
	// the channel share of the gate capacitance turns on smoothly above
	// threshold instead of being constant. See nlcap.go.
	NLGate bool
	// NLDelta is the turn-on window of the nonlinear gate capacitance in
	// volts (default 0.3 V).
	NLDelta float64
}

// Validate reports whether the model parameters are usable.
func (m MOSModel) Validate() error {
	if m.VT0 <= 0 {
		return fmt.Errorf("device: VT0 must be positive (magnitude), got %g", m.VT0)
	}
	if m.KP <= 0 {
		return fmt.Errorf("device: KP must be positive, got %g", m.KP)
	}
	if m.Lambda < 0 {
		return fmt.Errorf("device: Lambda must be non-negative, got %g", m.Lambda)
	}
	if m.Cox < 0 || m.CJ < 0 {
		return fmt.Errorf("device: capacitance parameters must be non-negative")
	}
	if m.NLDelta < 0 || math.IsNaN(m.NLDelta) || math.IsInf(m.NLDelta, 0) {
		return fmt.Errorf("device: NLDelta must be a finite non-negative window, got %g", m.NLDelta)
	}
	return nil
}

// MOSFET is a three-terminal (drain, gate, source) level-1 MOSFET with a
// bulk connection used only for its constant junction capacitances. The
// model handles source/drain inversion and, for PMOS, operates on negated
// terminal voltages so that one n-type core serves both polarities.
type MOSFET struct {
	Inst       string
	D, G, S, B circuit.UnknownID
	Model      MOSModel
	// W, L are the channel width and length (m).
	W, L float64

	gSlots [6]circuit.Slot // rows {D,S} × cols {G,D,S}
	// caps are the constant capacitances, registered as constant stamps in
	// Setup: the gate caps (unless NLGate) and the junction caps.
	caps []capStamp
	nlgs *nlGateStamp
	nlgd *nlGateStamp
}

type capStamp struct {
	p, n circuit.UnknownID
	c    float64
}

// NewMOSFET constructs a MOSFET instance. b is the bulk node (typically
// ground for NMOS, the supply rail for PMOS); it only receives junction
// capacitance.
func NewMOSFET(name string, d, g, s, b circuit.UnknownID, model MOSModel, w, l float64) (*MOSFET, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("device: mosfet %s: %w", name, err)
	}
	if w <= 0 || l <= 0 {
		return nil, fmt.Errorf("device: mosfet %s: W and L must be positive, got %g, %g", name, w, l)
	}
	m := &MOSFET{Inst: name, D: d, G: g, S: s, B: b, Model: model, W: w, L: l}
	cj := model.CJ * w
	if model.NLGate {
		// Split the total gate capacitance Cox·W·L into a constant overlap
		// share and a threshold-gated channel share per terminal, so that in
		// strong inversion the total matches the constant-capacitance model.
		cox := model.Cox * w * l
		delta := model.NLDelta
		if delta <= 0 {
			delta = 0.3
		}
		sgn := 1.0
		if model.Type == PMOS {
			sgn = -1
		}
		m.nlgs = &nlGateStamp{g: g, t: s, cov: 0.1 * cox, cch: 0.4 * cox, vt: model.VT0, dlt: delta, sgn: sgn}
		m.nlgd = &nlGateStamp{g: g, t: d, cov: 0.1 * cox, cch: 0.4 * cox, vt: model.VT0, dlt: delta, sgn: sgn}
	} else {
		cgate := model.Cox * w * l / 2
		m.caps = append(m.caps, capStamp{p: g, n: s, c: cgate}, capStamp{p: g, n: d, c: cgate})
	}
	if cj > 0 {
		m.caps = append(m.caps, capStamp{p: d, n: b, c: cj}, capStamp{p: s, n: b, c: cj})
	}
	return m, nil
}

// Name implements circuit.Device.
func (m *MOSFET) Name() string { return m.Inst }

// Setup implements circuit.Device.
func (m *MOSFET) Setup(ctx *circuit.SetupCtx) error {
	// Channel current I flows into D and out of S; it depends on vG, vD, vS.
	cols := [3]circuit.UnknownID{m.G, m.D, m.S}
	for k, c := range cols {
		m.gSlots[k] = ctx.G(m.D, c)
		m.gSlots[3+k] = ctx.G(m.S, c)
	}
	if m.nlgs != nil {
		m.nlgs.setup(ctx)
		m.nlgd.setup(ctx)
	}
	for _, cs := range m.caps {
		stampPair(ctx.ConstC, cs.p, cs.n, cs.c)
	}
	return nil
}

// ids evaluates the n-type level-1 drain current and its derivatives for
// effective terminal voltages with vds ≥ 0.
func (m *MOSFET) ids(vgs, vds float64) (id, gm, gds float64) {
	mdl := m.Model
	beta := mdl.KP * m.W / m.L
	vov := vgs - mdl.VT0
	if vov <= 0 {
		return 0, 0, 0
	}
	cl := 1 + mdl.Lambda*vds
	if vds < vov {
		// Triode region.
		id = beta * (vov*vds - vds*vds/2) * cl
		gm = beta * vds * cl
		gds = beta*(vov-vds)*cl + beta*(vov*vds-vds*vds/2)*mdl.Lambda
		return id, gm, gds
	}
	// Saturation.
	id = beta / 2 * vov * vov * cl
	gm = beta * vov * cl
	gds = beta / 2 * vov * vov * mdl.Lambda
	return id, gm, gds
}

// Eval implements circuit.Device.
func (m *MOSFET) Eval(ctx *circuit.EvalCtx) {
	// Polarity transform: for PMOS evaluate the n-type core on negated
	// voltages; the current into the drain negates while conductances keep
	// their sign (d(−I')/d(−v) = dI'/dv).
	sgn := 1.0
	if m.Model.Type == PMOS {
		sgn = -1
	}
	vg := sgn * ctx.V(m.G)
	vd := sgn * ctx.V(m.D)
	vs := sgn * ctx.V(m.S)

	var id, dIdG, dIdD, dIdS float64
	if vd >= vs {
		ids, gm, gds := m.ids(vg-vs, vd-vs)
		id = ids
		dIdG = gm
		dIdD = gds
		dIdS = -(gm + gds)
	} else {
		// Inverted operation: effective drain is the source terminal.
		ids, gm, gds := m.ids(vg-vd, vs-vd)
		id = -ids
		dIdG = -gm
		dIdS = -gds
		dIdD = gm + gds
	}

	ctx.AddF(m.D, sgn*id)
	ctx.AddF(m.S, -sgn*id)
	derivs := [3]float64{dIdG, dIdD, dIdS}
	for k, dv := range derivs {
		ctx.AddG(m.gSlots[k], dv)
		ctx.AddG(m.gSlots[3+k], -dv)
	}

	if m.nlgs != nil {
		m.nlgs.eval(ctx)
		m.nlgd.eval(ctx)
	}
}

// ConductivePairs implements circuit.ConductiveDevice: the channel joins
// drain and source (counted as conductive regardless of bias — the lint is
// topological).
func (m *MOSFET) ConductivePairs() [][2]circuit.UnknownID {
	return [][2]circuit.UnknownID{{m.D, m.S}}
}

// Terminals lists the MOSFET's node connections (for netlist lint).
func (m *MOSFET) Terminals() []circuit.UnknownID {
	return []circuit.UnknownID{m.D, m.G, m.S, m.B}
}
