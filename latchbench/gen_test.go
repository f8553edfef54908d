package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestServeSequenceIsAFunctionOfTheSeed(t *testing.T) {
	const n = 2000
	seq := func(seed int64, caller int) []serveOp {
		out := make([]serveOp, n)
		for i := range out {
			out[i] = genServeOp(seed, caller, i)
		}
		return out
	}
	a, b := seq(7, 0), seq(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, seq(8, 0)) {
		t.Error("different seeds gave the same sequence")
	}
	if reflect.DeepEqual(a, seq(7, 1)) {
		t.Error("the two callers share a sequence")
	}

	hot := 0
	seen := map[[2]float64]bool{}
	for c := 0; c < serveCallers; c++ {
		for _, op := range seq(7, c) {
			if op.hot {
				hot++
				if op.shape < 0 || op.shape >= len(hotShapes) {
					t.Fatalf("hot shape %d out of range", op.shape)
				}
				continue
			}
			key := [2]float64{op.vddRel, op.loadRel}
			if seen[key] {
				t.Fatalf("cold perturbation %v repeats", key)
			}
			seen[key] = true
			if op.vddRel < -0.02 || op.vddRel > 0.02 || op.loadRel < -0.1 || op.loadRel > 0.1 {
				t.Fatalf("cold perturbation %v outside ±2%% / ±10%%", key)
			}
		}
	}
	if share := float64(hot) / (serveCallers * n); share != 0.75 {
		t.Errorf("hot share %.3f, want 0.75", share)
	}
	shapes := map[int]int{}
	cells := map[string]int{}
	for _, op := range seq(7, 0) {
		if op.hot {
			shapes[op.shape]++
		} else {
			cells[op.cell]++
		}
	}
	for i := range hotShapes {
		if shapes[i] != n*3/4/len(hotShapes) {
			t.Errorf("hot shape %d drawn %d times of %d", i, shapes[i], n*3/4)
		}
	}
	if cells["tspc"] != cells["c2mos"] {
		t.Errorf("cold cells unbalanced: %v", cells)
	}
}

func TestColdRequestCarriesOnlyThePerturbedFields(t *testing.T) {
	op := serveOp{cell: "tspc", vddRel: 0.01, loadRel: -0.05}
	req, err := op.request(2.5, 25e-15, coldPoints)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal(req.Process, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"VDD": 2.5 * 1.01, "LoadCap": 25e-15 * 0.95}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("process override %v, want %v", got, want)
	}
	if !req.Wait || req.Options.Points != coldPoints || !req.Options.BothDirections {
		t.Errorf("cold request options %+v", req.Options)
	}
}

func TestMCSeedsAndCellOrderAreReproducible(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := mcSeed(3, i)
		if s != mcSeed(3, i) || s < 0 {
			t.Fatalf("mcSeed(3, %d) = %d is not a stable non-negative seed", i, s)
		}
		if seen[s] {
			t.Fatalf("mcSeed repeats at run %d", i)
		}
		seen[s] = true
	}
	orders := map[string]bool{}
	for seed := int64(0); seed < 16; seed++ {
		o := cellOrder(seed)
		if !reflect.DeepEqual(o, cellOrder(seed)) || len(o) != 2 {
			t.Fatalf("cellOrder(%d) unstable: %v", seed, o)
		}
		orders[o[0]] = true
	}
	if len(orders) != 2 {
		t.Error("the seed never changes which cell goes first")
	}
}
