// Package device implements the circuit elements used by the simulator:
// linear resistors and capacitors, independent voltage sources driven by
// waveforms (including the skew-parametric data source), and a
// Shichman-Hodges (SPICE level-1) MOSFET with constant intrinsic
// capacitances. Linear elements register their whole stamp once in Setup;
// per evaluation a device stamps only what depends on the state or time,
// through the slot handles it acquires in Setup.
package device

import (
	"fmt"

	"latchchar/internal/circuit"
)

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	Inst string
	P, N circuit.UnknownID
	Ohms float64
}

// NewResistor returns a resistor between p and n.
func NewResistor(name string, p, n circuit.UnknownID, ohms float64) (*Resistor, error) {
	if ohms <= 0 {
		return nil, fmt.Errorf("device: resistor %s must have positive resistance, got %g", name, ohms)
	}
	return &Resistor{Inst: name, P: p, N: n, Ohms: ohms}, nil
}

// Name implements circuit.Device.
func (r *Resistor) Name() string { return r.Inst }

// Setup implements circuit.Device: the conductance 1/R is a constant
// stamp, and with it the resistor current.
func (r *Resistor) Setup(ctx *circuit.SetupCtx) error {
	stampPair(ctx.ConstG, r.P, r.N, 1/r.Ohms)
	return nil
}

// Eval implements circuit.Device; a resistor has no state-dependent stamp.
func (r *Resistor) Eval(*circuit.EvalCtx) {}

// stampPair adds the two-terminal element stamp v·[1 −1; −1 1] on (p, n).
func stampPair(add func(i, j circuit.UnknownID, v float64), p, n circuit.UnknownID, v float64) {
	add(p, p, v)
	add(p, n, -v)
	add(n, p, -v)
	add(n, n, v)
}

// Capacitor is a linear two-terminal capacitor.
type Capacitor struct {
	Inst   string
	P, N   circuit.UnknownID
	Farads float64
}

// NewCapacitor returns a capacitor between p and n.
func NewCapacitor(name string, p, n circuit.UnknownID, farads float64) (*Capacitor, error) {
	if farads <= 0 {
		return nil, fmt.Errorf("device: capacitor %s must have positive capacitance, got %g", name, farads)
	}
	return &Capacitor{Inst: name, P: p, N: n, Farads: farads}, nil
}

// Name implements circuit.Device.
func (c *Capacitor) Name() string { return c.Inst }

// Setup implements circuit.Device: the capacitance is a constant stamp,
// and with it the capacitor charge.
func (c *Capacitor) Setup(ctx *circuit.SetupCtx) error {
	stampPair(ctx.ConstC, c.P, c.N, c.Farads)
	return nil
}

// Eval implements circuit.Device; a capacitor has no state-dependent stamp.
func (c *Capacitor) Eval(*circuit.EvalCtx) {}

// ConductivePairs implements circuit.ConductiveDevice.
func (r *Resistor) ConductivePairs() [][2]circuit.UnknownID {
	return [][2]circuit.UnknownID{{r.P, r.N}}
}

// Terminals lists the resistor's node connections (for netlist lint).
func (r *Resistor) Terminals() []circuit.UnknownID { return []circuit.UnknownID{r.P, r.N} }

// Terminals lists the capacitor's node connections (for netlist lint).
// Capacitors expose no conductive pairs: a node reachable only through
// capacitors has no DC path.
func (c *Capacitor) Terminals() []circuit.UnknownID { return []circuit.UnknownID{c.P, c.N} }
