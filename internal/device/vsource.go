package device

import (
	"fmt"

	"latchchar/internal/circuit"
	"latchchar/internal/wave"
)

// SourceRole tags what an independent voltage source represents; the
// characterization layers use it to identify the data input.
type SourceRole int

const (
	// RoleSupply is a constant rail or any source with no timing role.
	RoleSupply SourceRole = iota
	// RoleClock is a clock-like input uc(t): time-varying but independent of
	// the setup/hold skews.
	RoleClock
	// RoleData is the data input ud(t, τs, τh); its waveform must implement
	// SkewWaveform for sensitivity evaluation.
	RoleData
)

func (r SourceRole) String() string {
	switch r {
	case RoleSupply:
		return "supply"
	case RoleClock:
		return "clock"
	case RoleData:
		return "data"
	default:
		return fmt.Sprintf("SourceRole(%d)", int(r))
	}
}

// SkewWaveform is a waveform parameterized by the setup and hold skews.
type SkewWaveform interface {
	wave.Waveform
	// DTauS returns ∂v/∂τs at time t (the zs of paper eq. (7)).
	DTauS(t float64) float64
	// DTauH returns ∂v/∂τh at time t.
	DTauH(t float64) float64
}

// VSource is an independent voltage source between P (positive) and N. It
// adds one branch-current unknown and the branch equation
// v(P) − v(N) − W(t) = 0, contributing −W(t) to the src vector on its
// branch row — the bc·uc(t) / bd·ud(t) terms of paper eq. (2).
type VSource struct {
	Inst string
	P, N circuit.UnknownID
	W    wave.Waveform
	Role SourceRole

	branch circuit.UnknownID
}

// NewVSource creates a voltage source driven by w. For RoleData, w must
// implement SkewWaveform.
func NewVSource(name string, p, n circuit.UnknownID, w wave.Waveform, role SourceRole) (*VSource, error) {
	if w == nil {
		return nil, fmt.Errorf("device: source %s has no waveform", name)
	}
	if role == RoleData {
		if _, ok := w.(SkewWaveform); !ok {
			return nil, fmt.Errorf("device: data source %s waveform does not expose skew derivatives", name)
		}
	}
	return &VSource{Inst: name, P: p, N: n, W: w, Role: role}, nil
}

// Name implements circuit.Device.
func (v *VSource) Name() string { return v.Inst }

// Branch returns the source's branch-current unknown (valid after the
// circuit is finalized).
func (v *VSource) Branch() circuit.UnknownID { return v.branch }

// Setup implements circuit.Device. The incidence stamps are constant, so
// the branch current in the KCL rows and v(P) − v(N) on the branch row
// enter f without a per-evaluation stamp.
func (v *VSource) Setup(ctx *circuit.SetupCtx) error {
	v.branch = ctx.Branch(v.Inst)
	// KCL rows: branch current leaves P, enters N.
	ctx.ConstG(v.P, v.branch, 1)
	ctx.ConstG(v.N, v.branch, -1)
	// Branch row: v(P) − v(N) = W(t).
	ctx.ConstG(v.branch, v.P, 1)
	ctx.ConstG(v.branch, v.N, -1)
	if v.Role == RoleData {
		ctx.RegisterDataSource(v)
	}
	return nil
}

// Eval implements circuit.Device: the source stamps −W(t) on its branch
// row.
func (v *VSource) Eval(ctx *circuit.EvalCtx) {
	ctx.AddSrc(v.branch, -v.W.V(ctx.T))
}

// AddSkewSens implements circuit.DataSource: the source's contribution to
// the sensitivity right-hand sides is −z(t) on its branch row, mirroring
// the −W(t) source term.
func (v *VSource) AddSkewSens(t float64, zs, zh []float64) {
	sw, ok := v.W.(SkewWaveform)
	if !ok {
		return
	}
	zs[v.branch] -= sw.DTauS(t)
	zh[v.branch] -= sw.DTauH(t)
}

// ConductivePairs implements circuit.ConductiveDevice: an ideal source is a
// DC connection between its terminals.
func (v *VSource) ConductivePairs() [][2]circuit.UnknownID {
	return [][2]circuit.UnknownID{{v.P, v.N}}
}

// Terminals lists the source's node connections (for netlist lint).
func (v *VSource) Terminals() []circuit.UnknownID { return []circuit.UnknownID{v.P, v.N} }
