package main

import (
	"encoding/json"
	"fmt"

	"latchchar/serveclient"
)

// Every input the benchmark hands the program is a pure function of the
// workload seed: a SplitMix64 hash of (seed, stream, index) addresses each
// draw, so a request or sample is reproducible without replaying the ones
// before it, and the two serve callers get independent sequences.

const (
	streamServe uint64 = iota + 1
	streamMC
	streamOrder
)

// mix hashes seed and parts with the SplitMix64 finalizer.
func mix(seed int64, parts ...uint64) uint64 {
	z := uint64(seed)
	for _, p := range append(parts, 0) {
		z += 0x9e3779b97f4a7c15 ^ p
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// unit maps a hash onto [0, 1) with 53 bits of resolution.
func unit(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// hotShape is one of the four request shapes served from the result cache.
type hotShape struct {
	cell   string
	points int
}

var hotShapes = []hotShape{{"tspc", 8}, {"tspc", 16}, {"c2mos", 8}, {"c2mos", 16}}

// coldPoints is the per-direction point budget of a cold request.
const coldPoints = 12

// serveOp is one request of a serve caller's sequence. A cold op carries a
// process perturbation no other request of the run shares, so it misses
// the calibration and result caches and pays a real solve.
type serveOp struct {
	hot     bool
	shape   int // index into hotShapes (hot ops)
	cell    string
	vddRel  float64 // relative supply change (cold ops)
	loadRel float64 // relative output-load change (cold ops)
}

// serveBlock is the request block length: each block holds one cold
// request, so every window sees the 1:3 cold:hot mix exactly instead of a
// binomial draw of it, which would move ops/s and the percentiles from run
// to run by itself.
const serveBlock = 4

// genServeOp returns op i of the given caller's sequence. The seed places
// the cold request within each block, the phase of the round-robin over
// hot shapes and over the two cold cells, and each cold perturbation.
func genServeOp(seed int64, caller, i int) serveOp {
	h := func(parts ...uint64) uint64 {
		return mix(seed, append([]uint64{streamServe, uint64(caller)}, parts...)...)
	}
	block, pos := i/serveBlock, i%serveBlock
	coldPos := int(h(0, uint64(block)) % serveBlock)
	if pos != coldPos {
		k := block*(serveBlock-1) + pos
		if pos > coldPos {
			k--
		}
		return serveOp{hot: true, shape: (k + int(h(1)%uint64(len(hotShapes)))) % len(hotShapes)}
	}
	cell := "tspc"
	if (block+int(h(2)%2))%2 == 1 {
		cell = "c2mos"
	}
	// ±2% supply and ±10% load keep every cold cell well inside the
	// region where characterization succeeds.
	u := func(k uint64) float64 { return unit(h(3, uint64(block), k)) }
	return serveOp{cell: cell, vddRel: 0.04*u(0) - 0.02, loadRel: 0.2*u(1) - 0.1}
}

// processOverride is the partial Process override a cold request carries.
type processOverride struct {
	VDD     float64
	LoadCap float64
}

func (op serveOp) override(vdd, load float64) processOverride {
	return processOverride{VDD: vdd * (1 + op.vddRel), LoadCap: load * (1 + op.loadRel)}
}

// request renders the op as a synchronous characterize request tracing
// points per direction; nominal supplies the cell defaults the
// perturbation scales.
func (op serveOp) request(nomVDD, nomLoad float64, points int) (*serveclient.CharacterizeRequest, error) {
	if op.hot {
		return &serveclient.CharacterizeRequest{
			Cell:    hotShapes[op.shape].cell,
			Options: serveclient.OptionsRequest{Points: points, BothDirections: true},
			Wait:    true,
		}, nil
	}
	raw, err := json.Marshal(op.override(nomVDD, nomLoad))
	if err != nil {
		return nil, fmt.Errorf("encode process override: %w", err)
	}
	return &serveclient.CharacterizeRequest{
		Cell:    op.cell,
		Process: raw,
		Options: serveclient.OptionsRequest{Points: points, BothDirections: true},
		Wait:    true,
	}, nil
}

// mcSeed is the sampler seed of the i-th Monte-Carlo run: each run of a
// benchmark process draws a different sample set, so the reported median
// is not tied to one lucky or unlucky draw.
func mcSeed(seed int64, i int) int64 { return int64(mix(seed, streamMC, uint64(i)) >> 1) }

// cellOrder returns the two contour cells, starting with the one the seed
// picks.
func cellOrder(seed int64) []string {
	if mix(seed, streamOrder)&1 == 1 {
		return []string{"c2mos", "tspc"}
	}
	return []string{"tspc", "c2mos"}
}
