package circuit

import (
	"math"

	"latchchar/internal/linalg"
	"latchchar/internal/sparse"
)

// pin is one grounded ideal source condensed out of the Newton system:
// branch unknown branch is coupled only to node by the constant entries
// G(branch, node) = sBN and G(node, branch) = sNB, both ±1.
type pin struct {
	branch, node int
	sBN, sNB     float64
}

// condense detects the grounded ideal sources from the stamp structure
// alone: a branch unknown b whose only Jacobian entries are the constant
// ±1 pair at (b, p) and (p, b) for a node p, with no charge entries and no
// state-dependent entries in its row or column. Row b then reads
// ±x_p = r_b, so node p is known without factoring, and column b meets only
// row p, so the branch current follows from p's KCL row once the rest is
// solved. Each node is pinned at most once: a second source on the same
// node stays an ordinary unknown, leaving the system as singular as it is.
// Floating sources stay ordinary unknowns too.
func (c *Circuit) condense() {
	n := c.N()
	numNodes := len(c.nodeNames)
	g := c.constG
	// touched marks unknowns with a charge or state-dependent entry in
	// their row or column.
	touched := make([]bool, n)
	for _, m := range []*sparse.CSR{c.gPat, c.cPat, c.constC} {
		for i := 0; i < n; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				touched[i], touched[m.Col[k]] = true, true
			}
		}
	}
	colCount := make([]int, n) // constant G entries per column
	for _, j := range g.Col {
		colCount[j]++
	}
	pinned := make([]bool, n)
	for b := numNodes; b < n; b++ {
		lo, hi := g.RowPtr[b], g.RowPtr[b+1]
		if touched[b] || hi-lo != 1 || colCount[b] != 1 {
			continue
		}
		p := g.Col[lo]
		sBN, sNB := g.Val[lo], g.At(p, b)
		if p >= numNodes || pinned[p] || math.Abs(sBN) != 1 || math.Abs(sNB) != 1 {
			continue
		}
		pinned[b], pinned[p] = true, true
		c.pins = append(c.pins, pin{branch: b, node: p, sBN: sBN, sNB: sNB})
	}
	for i := 0; i < n; i++ {
		if !pinned[i] {
			c.free = append(c.free, i)
		}
	}
}

// FreeUnknowns returns how many unknowns every Newton system factors: N
// minus a node and a branch current per grounded ideal source. Valid after
// Finalize.
func (c *Circuit) FreeUnknowns() int { return len(c.free) }

// Jacobian assembles and solves the Newton systems of one Eval:
//
//	J·x = b,  J = α·C + G + g·I_nodes
//
// from the last At call's stamps. The constant part α·C_const + G_const is
// kept dense per α, so an assembly adds only the state-dependent stamps to
// a copy of it. The grounded sources are condensed out by exact block
// elimination: only the free unknowns are factored (dense partial-pivot LU,
// internal/linalg), each pinned node's update is its source row's
// right-hand side, and each source current is recovered from its node's row
// after the solve. Every Newton loop (transient steps and sensitivities,
// adaptive steps, DC operating points) solves through a Jacobian; after the
// first Factor neither Factor nor Solve allocates. A Jacobian is not safe
// for concurrent use.
type Jacobian struct {
	ev *Eval
	n  int

	full      *linalg.Matrix // J of the last Factor, all n unknowns
	base      *linalg.Matrix // α·C_const + G_const at baseAlpha (NaN: none yet)
	baseAlpha float64
	ff        *linalg.Matrix // J restricted to the free unknowns
	lu        linalg.LU
	rf, xf    linalg.Vector // free-unknown right-hand side and solution
}

// NewJacobian returns a Jacobian solving against ev's stamps.
func (ev *Eval) NewJacobian() *Jacobian {
	n, nf := ev.c.N(), len(ev.c.free)
	return &Jacobian{
		ev:        ev,
		n:         n,
		full:      linalg.NewMatrix(n, n),
		base:      linalg.NewMatrix(n, n),
		baseAlpha: math.NaN(),
		ff:        linalg.NewMatrix(nf, nf),
		rf:        linalg.NewVector(nf),
		xf:        linalg.NewVector(nf),
	}
}

// Factor assembles J = α·C + G, plus gNodes on every node diagonal (the DC
// gmin-stepping conductance; 0 otherwise), from the Eval's last stamps and
// factors its free-unknown block. It returns linalg.ErrSingular when that
// block is singular to working precision; the block is singular exactly
// when J is.
func (jb *Jacobian) Factor(alpha, gNodes float64) error {
	c := jb.ev.c
	n := jb.n
	if alpha != jb.baseAlpha {
		jb.base.Zero()
		c.constC.ScatterAdd(alpha, jb.base)
		c.constG.ScatterAdd(1, jb.base)
		jb.baseAlpha = alpha
	}
	j := jb.full.Data
	copy(j, jb.base.Data)
	if gNodes != 0 {
		for i := range c.nodeNames {
			j[i*n+i] += gNodes
		}
	}
	jb.ev.cDyn.ScatterAdd(alpha, jb.full)
	jb.ev.gDyn.ScatterAdd(1, jb.full)
	nf := len(c.free)
	for a, i := range c.free {
		row, dst := j[i*n:(i+1)*n], jb.ff.Data[a*nf:(a+1)*nf]
		for k, col := range c.free {
			dst[k] = row[col]
		}
	}
	return jb.lu.Refactor(jb.ff)
}

// Solve solves J·x = b with the last successful Factor. b and x have length
// N and must not alias.
func (jb *Jacobian) Solve(b, x []float64) {
	c := jb.ev.c
	n := jb.n
	if len(b) != n || len(x) != n {
		panic("circuit: Jacobian.Solve dimension mismatch")
	}
	j := jb.full.Data
	// Source rows fix the pinned nodes; the branch currents are zeroed so
	// that recovering one below reads no stale value of another.
	for _, p := range c.pins {
		x[p.node] = p.sBN * b[p.branch]
		x[p.branch] = 0
	}
	for a, i := range c.free {
		s := b[i]
		for _, p := range c.pins {
			s -= j[i*n+p.node] * x[p.node]
		}
		jb.rf[a] = s
	}
	jb.lu.SolveInto(jb.rf, jb.xf)
	for a, i := range c.free {
		x[i] = jb.xf[a]
	}
	// Each pinned node's KCL row has its source current as the one
	// unknown left: G(p, br)·x_br = b_p − Σ_{k≠br} J(p, k)·x_k.
	for _, p := range c.pins {
		s := b[p.node]
		for k, v := range j[p.node*n : (p.node+1)*n] {
			s -= v * x[k]
		}
		x[p.branch] = p.sNB * s
	}
}
