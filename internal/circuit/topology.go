package circuit

// ConductiveDevice is implemented by devices that provide a DC conduction
// path between unknowns (resistors, sources, MOSFET channels). Devices that
// do not implement it (capacitors) contribute no conductive edges.
type ConductiveDevice interface {
	Device
	// ConductivePairs returns terminal pairs that can conduct DC current.
	ConductivePairs() [][2]UnknownID
}

// Topology is a static connectivity summary of a finalized circuit: how many
// device terminals and conductive device terminals touch each node, and which
// nodes can reach ground through chains of conductive devices. It is the
// substrate for the structural analyzers in internal/vet.
//
// "Conductive" is topological, not electrical: a MOSFET channel counts as a
// conductive edge even at biases where it is off, so dynamic storage nodes
// reached through pass devices are considered grounded.
type Topology struct {
	c *Circuit
	// conductiveDeg[i] counts conductive-device terminal touches of node i.
	conductiveDeg []int
	// termCount[i] counts all device terminal touches of node i.
	termCount []int
	// reachesGround[i] reports a conductive path from node i to ground.
	reachesGround []bool
}

// Topology computes the connectivity summary. The circuit must be finalized.
func (c *Circuit) Topology() *Topology {
	if !c.finalized {
		panic("circuit: Topology before Finalize")
	}
	n := len(c.nodeNames)
	t := &Topology{
		c:             c,
		conductiveDeg: make([]int, n),
		termCount:     make([]int, n),
		reachesGround: make([]bool, n),
	}
	// Union-find over nodes ∪ {ground}; index n is ground.
	parent := make([]int, n+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	idx := func(id UnknownID) int {
		if id == Ground {
			return n
		}
		return int(id)
	}
	for _, d := range c.devices {
		cd, ok := d.(ConductiveDevice)
		if !ok {
			continue
		}
		for _, pair := range cd.ConductivePairs() {
			a, b := pair[0], pair[1]
			if a != Ground && int(a) < n {
				t.conductiveDeg[a]++
			}
			if b != Ground && int(b) < n {
				t.conductiveDeg[b]++
			}
			// Branch unknowns are not nodes; skip pairs that reference them.
			if (a != Ground && int(a) >= n) || (b != Ground && int(b) >= n) {
				continue
			}
			union(idx(a), idx(b))
		}
	}
	for _, d := range c.devices {
		if tp, ok := d.(interface{ Terminals() []UnknownID }); ok {
			for _, id := range tp.Terminals() {
				if id != Ground && int(id) < n {
					t.termCount[id]++
				}
			}
		}
	}
	groundRoot := find(n)
	for i := 0; i < n; i++ {
		t.reachesGround[i] = find(i) == groundRoot
	}
	return t
}

// NumNodes returns the number of non-ground nodes.
func (t *Topology) NumNodes() int { return len(t.termCount) }

// NodeName returns the name of node i.
func (t *Topology) NodeName(i int) string { return t.c.nodeNames[i] }

// ConductiveDegree returns how many conductive device terminals touch node i.
// Zero means the node is isolated from all DC conduction (only capacitors, or
// nothing, touch it) and its DC level is set solely by the gmin leak.
func (t *Topology) ConductiveDegree(i int) int { return t.conductiveDeg[i] }

// TerminalCount returns how many device terminals of any kind touch node i.
func (t *Topology) TerminalCount(i int) int { return t.termCount[i] }

// ReachesGround reports whether node i has a conductive path to ground.
func (t *Topology) ReachesGround(i int) bool { return t.reachesGround[i] }
