package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// endToEnd names the end-to-end metrics every workload reports itself;
// main adds max_rss_mb.
var endToEnd = []string{"setup_s", "op_s", "rate_per_s"}

// TestMain lets the test binary stand in for the benchmark binary when a
// workload starts itself again as a --setup-only child.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--setup-only" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// Each workload at reduced size, untraced (with one cold set-up in a
// child process) and traced: every operation succeeds, every output check
// passes, and the expected metrics are there and positive.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solver")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, seconds: time.Second, trace: trace, smoke: true}
			if !trace {
				cfg.coldSetups = 1
			}
			res, err := run(cfg)
			if err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = []string{"ledger.other_share", "transient.wall_s", "sparse.lu_s", "trace.overhead_ratio"}
			}
			for _, m := range want {
				if v := res.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s trace=%v: metric %s = %g, want > 0", name, trace, m, v)
				}
			}
		}
	}
}

// BENCHMARK.json names exactly the metrics the workloads report.
func TestBenchmarkJSONMatchesTheWorkloads(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}
	e2e := map[string]bool{"max_rss_mb": true}
	for _, m := range endToEnd {
		e2e[m] = true
	}
	var declared []string
	for _, m := range b.EndToEnd {
		declared = append(declared, m.Name)
		if !e2e[m.Name] {
			t.Errorf("end-to-end metric %s is reported by no workload", m.Name)
		}
	}
	if len(declared) != len(e2e) {
		sort.Strings(declared)
		t.Errorf("BENCHMARK.json declares %v, workloads report %d metrics", declared, len(e2e))
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
