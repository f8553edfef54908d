// Package circuit implements modified nodal analysis (MNA) assembly and the
// Newton linear solve for the simulator. A Circuit owns the unknown
// numbering (node voltages followed by branch currents), the conductance
// Jacobian G = ∂f/∂x and the charge Jacobian C = ∂q/∂x, and evaluates the
// vectors and matrices of the circuit equation
//
//	d/dt q(x) + f(x) + src(t) = 0
//
// where src(t) collects all independent-source contributions, split per the
// paper into clock-like terms bc·uc(t) and the data term bd·ud(t, τs, τh).
//
// Each Jacobian is the sum of a constant part and a state-dependent part.
// Devices register their constant entries, with values, once in Setup
// (resistors, linear capacitors, constant MOSFET capacitances, source
// incidence; Finalize adds Gmin), so the linear parts of q and f come from
// one sparse product each. Only the state-dependent entries (MOSFET I–V,
// nonlinear gate capacitance) are stamped on every evaluation, through
// integer slots acquired in Setup. A Jacobian (jacobian.go) assembles
// α·C + G from both parts and factors only the unknowns that grounded
// ideal sources do not already fix.
package circuit

import (
	"fmt"

	"latchchar/internal/linalg"
	"latchchar/internal/sparse"
)

// UnknownID identifies one MNA unknown: a node voltage or a branch current.
// Ground is the reference node and is not an unknown.
type UnknownID int

// Ground is the reference node; stamps against it are dropped.
const Ground UnknownID = -1

// Slot addresses one state-dependent matrix entry for fast value stamping.
// The zero Slot is invalid; devices must use the Slot returned by SetupCtx.
type Slot int

// noSlot marks pattern entries involving ground.
const noSlot Slot = -1

// Device is a circuit element. Setup is called exactly once when the
// circuit is finalized and registers the device's constant stamps with
// their values; Eval is called for every residual/Jacobian evaluation and
// stamps only the state- and time-dependent values, through the handles
// acquired in Setup.
type Device interface {
	// Name returns the instance name, used in diagnostics.
	Name() string
	// Setup registers constant stamps, state-dependent pattern entries and
	// any extra branch unknowns.
	Setup(ctx *SetupCtx) error
	// Eval stamps the state-dependent q, f and C, G values and the src
	// values for the state and time in ctx.
	Eval(ctx *EvalCtx)
}

// DataSource is implemented by devices whose source waveform depends on the
// setup/hold skews (τs, τh); they contribute the sensitivity right-hand
// sides bd·zs(t) and bd·zh(t) of paper eq. (7).
type DataSource interface {
	Device
	// AddSkewSens accumulates bd·zs(t) into zs and bd·zh(t) into zh.
	AddSkewSens(t float64, zs, zh []float64)
}

// Circuit is an MNA circuit under construction or finalized for evaluation.
// A Circuit (and evaluators derived from it) is not safe for concurrent
// use; build one circuit per goroutine via a factory function.
type Circuit struct {
	nodeIndex map[string]UnknownID
	nodeNames []string
	devices   []Device
	dataSrcs  []DataSource

	numBranches int
	branchNames []string

	// Gmin is the conductance from every node to ground, stamped
	// unconditionally so that floating dynamic nodes keep the DC system
	// nonsingular (SPICE-style). Set before Finalize; default 1e-12 S.
	Gmin float64

	finalized bool
	gEntries  []patEntry // state-dependent G entries in setup order
	cEntries  []patEntry
	gConsts   []constEntry // constant G entries with values, setup order
	cConsts   []constEntry
	gSlotMap  []int // slot -> CSR value index
	cSlotMap  []int
	gPat      *sparse.CSR // state-dependent patterns with zero values (template)
	cPat      *sparse.CSR
	constG    *sparse.CSR // constant stamps with their values
	constC    *sparse.CSR

	// pins are the grounded ideal sources condensed out of every Newton
	// system; free lists the remaining unknowns, the ones factored.
	pins []pin
	free []int
}

type patEntry struct{ i, j UnknownID }

type constEntry struct {
	i, j UnknownID
	v    float64
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{
		nodeIndex: make(map[string]UnknownID),
		Gmin:      1e-12,
	}
}

// Node returns the unknown for the named node, creating it on first use.
// The names "0", "gnd" and "GND" denote ground.
func (c *Circuit) Node(name string) UnknownID {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground
	}
	if id, ok := c.nodeIndex[name]; ok {
		return id
	}
	if c.finalized {
		panic(fmt.Sprintf("circuit: new node %q after Finalize", name))
	}
	id := UnknownID(len(c.nodeNames))
	c.nodeIndex[name] = id
	c.nodeNames = append(c.nodeNames, name)
	return id
}

// LookupNode returns the unknown for a node that must already exist.
func (c *Circuit) LookupNode(name string) (UnknownID, error) {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground, nil
	}
	id, ok := c.nodeIndex[name]
	if !ok {
		return Ground, fmt.Errorf("circuit: unknown node %q", name)
	}
	return id, nil
}

// NodeName returns a human-readable name for an unknown.
func (c *Circuit) NodeName(id UnknownID) string {
	switch {
	case id == Ground:
		return "gnd"
	case int(id) < len(c.nodeNames):
		return c.nodeNames[id]
	default:
		bi := int(id) - len(c.nodeNames)
		if bi < len(c.branchNames) {
			return "i(" + c.branchNames[bi] + ")"
		}
		return fmt.Sprintf("unknown%d", int(id))
	}
}

// AddDevice appends a device to the circuit.
func (c *Circuit) AddDevice(d Device) {
	if c.finalized {
		panic("circuit: AddDevice after Finalize")
	}
	c.devices = append(c.devices, d)
}

// Devices returns the devices in insertion order.
func (c *Circuit) Devices() []Device { return c.devices }

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// N returns the total unknown count (nodes + branches). Valid after
// Finalize.
func (c *Circuit) N() int { return len(c.nodeNames) + c.numBranches }

// MaxUnknowns is the largest unknown count Finalize accepts. Every solver
// factors a dense n×n Jacobian (8·n² bytes: 8 MiB at the limit), so the cap
// keeps an untrusted deck from demanding gigabytes; latch cells have a
// dozen or so unknowns.
const MaxUnknowns = 1024

// Finalize runs device Setup, assigns branch unknowns, freezes the stamp
// patterns and condenses the grounded ideal sources (see Jacobian). It must
// be called exactly once, after which Eval contexts can be created.
// Circuits with more than MaxUnknowns unknowns are rejected.
func (c *Circuit) Finalize() error {
	if c.finalized {
		return fmt.Errorf("circuit: already finalized")
	}
	if len(c.devices) == 0 {
		return fmt.Errorf("circuit: no devices")
	}
	setup := &SetupCtx{c: c}
	for _, d := range c.devices {
		if err := d.Setup(setup); err != nil {
			return fmt.Errorf("circuit: setup of %s: %w", d.Name(), err)
		}
	}
	if n := c.N(); n > MaxUnknowns {
		return fmt.Errorf("circuit: %d unknowns exceed the limit of %d (the solvers factor a dense %d×%d Jacobian)",
			n, MaxUnknowns, n, n)
	}
	// Gmin diagonal entries for every node row keep G nonsingular at DC.
	for i := range c.nodeNames {
		setup.ConstG(UnknownID(i), UnknownID(i), c.Gmin)
	}
	c.finalized = true

	n := c.N()
	c.gPat, c.gSlotMap = buildPattern(n, c.gEntries)
	c.cPat, c.cSlotMap = buildPattern(n, c.cEntries)
	c.constG = buildConst(n, c.gConsts)
	c.constC = buildConst(n, c.cConsts)
	c.condense()
	return nil
}

// buildPattern returns the zero-valued CSR pattern of entries and the map
// from each entry's slot to its CSR value index.
func buildPattern(n int, entries []patEntry) (*sparse.CSR, []int) {
	b := sparse.NewBuilder(n)
	for _, e := range entries {
		b.Add(int(e.i), int(e.j), 0)
	}
	pat := b.Build()
	slots := make([]int, len(entries))
	for k, e := range entries {
		idx, ok := pat.Index(int(e.i), int(e.j))
		if !ok {
			panic("circuit: pattern entry vanished")
		}
		slots[k] = idx
	}
	return pat, slots
}

// buildConst returns the CSR sum of constant entries, duplicates added in
// setup order.
func buildConst(n int, entries []constEntry) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for _, e := range entries {
		b.Add(int(e.i), int(e.j), e.v)
	}
	return b.Build()
}

// Finalized reports whether Finalize has run.
func (c *Circuit) Finalized() bool { return c.finalized }

// SetupCtx is passed to Device.Setup for registering unknowns, constant
// stamps and state-dependent pattern entries.
type SetupCtx struct {
	c *Circuit
}

// Branch allocates a new branch-current unknown (e.g. for a voltage
// source) and returns its id.
func (s *SetupCtx) Branch(name string) UnknownID {
	id := UnknownID(len(s.c.nodeNames) + s.c.numBranches)
	s.c.numBranches++
	s.c.branchNames = append(s.c.branchNames, name)
	return id
}

// ConstG adds the constant v to conductance-Jacobian entry (i, j); the
// matching current G(i, j)·x_j enters f on every evaluation without a
// device stamp. Entries touching ground are dropped.
func (s *SetupCtx) ConstG(i, j UnknownID, v float64) {
	if i != Ground && j != Ground {
		s.c.gConsts = append(s.c.gConsts, constEntry{i, j, v})
	}
}

// ConstC adds the constant v to charge-Jacobian entry (i, j); the matching
// charge C(i, j)·x_j enters q on every evaluation without a device stamp.
// Entries touching ground are dropped.
func (s *SetupCtx) ConstC(i, j UnknownID, v float64) {
	if i != Ground && j != Ground {
		s.c.cConsts = append(s.c.cConsts, constEntry{i, j, v})
	}
}

// G registers a state-dependent conductance-Jacobian entry (i, j) and
// returns its stamping slot. Entries touching ground return a slot whose
// stamps are dropped.
func (s *SetupCtx) G(i, j UnknownID) Slot {
	if i == Ground || j == Ground {
		return noSlot
	}
	s.c.gEntries = append(s.c.gEntries, patEntry{i, j})
	return Slot(len(s.c.gEntries) - 1)
}

// C registers a state-dependent charge-Jacobian entry (i, j) and returns
// its slot.
func (s *SetupCtx) C(i, j UnknownID) Slot {
	if i == Ground || j == Ground {
		return noSlot
	}
	s.c.cEntries = append(s.c.cEntries, patEntry{i, j})
	return Slot(len(s.c.cEntries) - 1)
}

// RegisterDataSource marks d as a skew-dependent source whose sensitivity
// right-hand sides are collected by AddSkewSens.
func (s *SetupCtx) RegisterDataSource(d DataSource) {
	s.c.dataSrcs = append(s.c.dataSrcs, d)
}

// Eval owns the storage for one assembly of the circuit equations. Create
// one per solver (DC or transient) and reuse it across evaluations.
type Eval struct {
	c *Circuit
	// Q, F, Src are the assembled vectors: charges, static currents and
	// independent-source contributions at the last At call.
	Q, F, Src []float64
	// cDyn and gDyn hold the state-dependent Jacobian entries of the last
	// At call; the full Jacobians add the circuit's constant stamps.
	cDyn, gDyn *sparse.CSR

	ctx EvalCtx
}

// NewEval allocates evaluation storage. The circuit must be finalized.
func (c *Circuit) NewEval() *Eval {
	if !c.finalized {
		panic("circuit: NewEval before Finalize")
	}
	n := c.N()
	ev := &Eval{
		c:    c,
		Q:    make([]float64, n),
		F:    make([]float64, n),
		Src:  make([]float64, n),
		cDyn: c.cPat.Clone(),
		gDyn: c.gPat.Clone(),
	}
	ev.ctx.ev = ev
	return ev
}

// At assembles q, f, src and the Jacobian stamps for state x at time t:
// the constant stamps contribute C_const·x to q and G_const·x to f, then
// every device stamps its state-dependent values and its sources.
func (ev *Eval) At(x []float64, t float64) {
	if len(x) != ev.c.N() {
		panic("circuit: Eval.At state length mismatch")
	}
	ev.c.constC.MulVec(x, ev.Q)
	ev.c.constG.MulVec(x, ev.F)
	clear(ev.Src)
	ev.cDyn.ZeroVals()
	ev.gDyn.ZeroVals()
	ev.ctx.X = x
	ev.ctx.T = t
	for _, d := range ev.c.devices {
		d.Eval(&ev.ctx)
	}
}

// MulC computes y = C·x for the charge Jacobian C of the last At call.
// x and y must have length N and must not alias.
func (ev *Eval) MulC(x, y []float64) {
	ev.c.constC.MulVec(x, y)
	ev.cDyn.MulVecAdd(1, x, y)
}

// Jacobians returns fresh dense copies of the full charge and conductance
// Jacobians (constant plus state-dependent stamps) of the last At call,
// for tests and diagnostics; the solvers never materialize them.
func (ev *Eval) Jacobians() (c, g *linalg.Matrix) {
	n := ev.c.N()
	c, g = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	ev.c.constC.ScatterAdd(1, c)
	ev.cDyn.ScatterAdd(1, c)
	ev.c.constG.ScatterAdd(1, g)
	ev.gDyn.ScatterAdd(1, g)
	return c, g
}

// AddSkewSens accumulates the data-source sensitivity right-hand sides
// bd·zs(t) into zs and bd·zh(t) into zh (paper eq. (7)).
func (ev *Eval) AddSkewSens(t float64, zs, zh []float64) {
	for _, d := range ev.c.dataSrcs {
		d.AddSkewSens(t, zs, zh)
	}
}

// Circuit returns the evaluated circuit.
func (ev *Eval) Circuit() *Circuit { return ev.c }

// EvalCtx is the stamping context handed to Device.Eval.
type EvalCtx struct {
	ev *Eval
	// X is the state vector being evaluated; T the time.
	X []float64
	T float64
}

// V returns the value of unknown id in the current state (0 for ground).
func (e *EvalCtx) V(id UnknownID) float64 {
	if id == Ground {
		return 0
	}
	return e.X[id]
}

// AddF accumulates into the static-current vector f.
func (e *EvalCtx) AddF(id UnknownID, v float64) {
	if id != Ground {
		e.ev.F[id] += v
	}
}

// AddQ accumulates into the charge vector q.
func (e *EvalCtx) AddQ(id UnknownID, v float64) {
	if id != Ground {
		e.ev.Q[id] += v
	}
}

// AddSrc accumulates into the independent-source vector src(t).
func (e *EvalCtx) AddSrc(id UnknownID, v float64) {
	if id != Ground {
		e.ev.Src[id] += v
	}
}

// AddG accumulates into the conductance Jacobian through a Setup slot.
func (e *EvalCtx) AddG(s Slot, v float64) {
	if s != noSlot {
		e.ev.gDyn.Val[e.ev.c.gSlotMap[s]] += v
	}
}

// AddC accumulates into the charge Jacobian through a Setup slot.
func (e *EvalCtx) AddC(s Slot, v float64) {
	if s != noSlot {
		e.ev.cDyn.Val[e.ev.c.cSlotMap[s]] += v
	}
}
