package vet

import "strconv"

// The three topology analyzers. They share the circuit.Topology computation
// cached on the Target.

// analyzerFloatingNode flags nodes no conductive device terminal touches at
// all: only capacitors (or nothing) connect to them, so their DC level is
// set solely by the gmin leak and the DC operating point is meaningless.
var analyzerFloatingNode = &Analyzer{
	Name:    "floating-node",
	Doc:     "node touched only by non-conductive devices (DC level set by gmin alone)",
	HelpURI: "DESIGN.md#vet-floating-node",
	Run: func(t *Target) []Diagnostic {
		top := t.Topology()
		var out []Diagnostic
		for i := 0; i < top.NumNodes(); i++ {
			if top.ConductiveDegree(i) == 0 && top.TerminalCount(i) > 0 {
				out = append(out, Diagnostic{
					Severity: Error,
					Node:     top.NodeName(i),
					Message:  "no conductive device terminal touches this node; its DC level is set only by the gmin leak",
					Details: map[string]string{
						"terminals": strconv.Itoa(top.TerminalCount(i)),
					},
				})
			}
		}
		return out
	},
}

// analyzerNoGroundPath flags nodes whose conductive component does not
// contain ground. MOSFET channels count as conductive regardless of bias, so
// dynamic storage nodes behind pass devices do not trigger this.
var analyzerNoGroundPath = &Analyzer{
	Name:    "no-ground-path",
	Doc:     "node with no conductive path to ground (missing connection or name typo)",
	HelpURI: "DESIGN.md#vet-no-ground-path",
	Run: func(t *Target) []Diagnostic {
		top := t.Topology()
		var out []Diagnostic
		for i := 0; i < top.NumNodes(); i++ {
			if !top.ReachesGround(i) {
				out = append(out, Diagnostic{
					Severity: Error,
					Node:     top.NodeName(i),
					Message:  "no conductive path to ground; usually a missing transistor connection or a node name typo",
				})
			}
		}
		return out
	},
}

// analyzerSingleTerminal flags nodes exactly one device terminal touches —
// almost always a misspelled node name splitting a net in two.
var analyzerSingleTerminal = &Analyzer{
	Name:    "single-terminal",
	Doc:     "node touched by exactly one device terminal (dangling net, likely typo)",
	HelpURI: "DESIGN.md#vet-single-terminal",
	Run: func(t *Target) []Diagnostic {
		top := t.Topology()
		var out []Diagnostic
		for i := 0; i < top.NumNodes(); i++ {
			if top.TerminalCount(i) == 1 {
				out = append(out, Diagnostic{
					Severity: Warning,
					Node:     top.NodeName(i),
					Message:  "only one device terminal touches this node (typo?)",
				})
			}
		}
		return out
	},
}
