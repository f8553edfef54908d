package circuit

import "testing"

// The TestLint* cases check the Topology facts behind the structural lint
// analyzers of internal/vet: floating-node (ConductiveDegree),
// no-ground-path (ReachesGround) and single-terminal-node (TerminalCount).

// lintDevice is a configurable stub implementing the topology interfaces.
type lintDevice struct {
	name  string
	pairs [][2]UnknownID
	terms []UnknownID
}

func (d *lintDevice) Name() string                    { return d.name }
func (d *lintDevice) Setup(ctx *SetupCtx) error       { ctx.G(d.terms[0], d.terms[0]); return nil }
func (d *lintDevice) Eval(ctx *EvalCtx)               {}
func (d *lintDevice) ConductivePairs() [][2]UnknownID { return d.pairs }
func (d *lintDevice) Terminals() []UnknownID          { return d.terms }

func TestLintCleanCircuit(t *testing.T) {
	c := New()
	a := c.Node("a")
	b := c.Node("b")
	c.AddDevice(&lintDevice{name: "r1", pairs: [][2]UnknownID{{a, Ground}}, terms: []UnknownID{a, Ground}})
	c.AddDevice(&lintDevice{name: "r2", pairs: [][2]UnknownID{{a, b}}, terms: []UnknownID{a, b}})
	c.AddDevice(&lintDevice{name: "r3", pairs: [][2]UnknownID{{b, Ground}}, terms: []UnknownID{b, Ground}})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	top := c.Topology()
	for i := 0; i < top.NumNodes(); i++ {
		if top.ConductiveDegree(i) == 0 || !top.ReachesGround(i) || top.TerminalCount(i) < 2 {
			t.Errorf("clean node %s: conductive degree %d, reaches ground %v, terminals %d",
				top.NodeName(i), top.ConductiveDegree(i), top.ReachesGround(i), top.TerminalCount(i))
		}
	}
}

func TestLintFloatingNode(t *testing.T) {
	c := New()
	a := c.Node("a")
	fl := c.Node("floaty")
	c.AddDevice(&lintDevice{name: "r1", pairs: [][2]UnknownID{{a, Ground}}, terms: []UnknownID{a, Ground}})
	// A capacitor-like device: terminals but no conductive pairs.
	c.AddDevice(&lintDevice{name: "c1", terms: []UnknownID{a, fl}})
	c.AddDevice(&lintDevice{name: "c2", terms: []UnknownID{fl, Ground}})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	top := c.Topology()
	if top.ReachesGround(int(fl)) {
		t.Error("floating node reported as reaching ground")
	}
	if !top.ReachesGround(int(a)) || top.ConductiveDegree(int(a)) == 0 || top.TerminalCount(int(a)) < 2 {
		t.Errorf("node a: conductive degree %d, reaches ground %v, terminals %d",
			top.ConductiveDegree(int(a)), top.ReachesGround(int(a)), top.TerminalCount(int(a)))
	}
}

func TestLintIsolatedNode(t *testing.T) {
	c := New()
	a := c.Node("a")
	iso := c.Node("iso")
	c.AddDevice(&lintDevice{name: "r1", pairs: [][2]UnknownID{{a, Ground}}, terms: []UnknownID{a, Ground}})
	// Two capacitor-like devices meet at iso: touched, but no conduction at all.
	c.AddDevice(&lintDevice{name: "c1", terms: []UnknownID{a, iso}})
	c.AddDevice(&lintDevice{name: "c2", terms: []UnknownID{iso, Ground}})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	top := c.Topology()
	if top.ConductiveDegree(int(iso)) != 0 || top.TerminalCount(int(iso)) == 0 {
		t.Errorf("conduction-isolated node: conductive degree %d, terminals %d; want 0 and > 0",
			top.ConductiveDegree(int(iso)), top.TerminalCount(int(iso)))
	}
}

func TestLintSingleTerminalNode(t *testing.T) {
	c := New()
	a := c.Node("a")
	stub := c.Node("stub")
	c.AddDevice(&lintDevice{name: "r1", pairs: [][2]UnknownID{{a, Ground}}, terms: []UnknownID{a, Ground}})
	c.AddDevice(&lintDevice{name: "r2", pairs: [][2]UnknownID{{a, stub}}, terms: []UnknownID{a, stub}})
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	top := c.Topology()
	if n := top.TerminalCount(int(stub)); n != 1 {
		t.Errorf("dangling node has %d terminals, want 1", n)
	}
	if name := top.NodeName(int(stub)); name != "stub" {
		t.Errorf("NodeName = %q, want stub", name)
	}
}

func TestLintBeforeFinalizePanics(t *testing.T) {
	c := New()
	c.Node("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Topology()
}
