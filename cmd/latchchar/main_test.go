package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesContourCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "contour.csv")
	err := run([]string{"-cell", "tspc", "-points", "8", "-both=false", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few CSV lines: %d", len(lines))
	}
	if lines[0] != "tau_s_ps,tau_h_ps,h_volts,corrector_iters" {
		t.Errorf("header: %q", lines[0])
	}
}

func TestRunJSONFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "contour.json")
	err := run([]string{"-cell", "tspc", "-points", "5", "-both=false", "-format", "json", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"tau_s_ps\"") {
		t.Errorf("json output: %q", data[:60])
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-cell", "nope"}); err == nil {
		t.Error("unknown cell accepted")
	}
	if err := run([]string{"-method", "rk4"}); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run([]string{"-format", "xml", "-points", "3", "-both=false"}); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunVetGateBlocksBrokenNetlist(t *testing.T) {
	deck := "../../internal/vet/testdata/broken_tspc.cir"
	err := run([]string{"-netlist", deck, "-points", "3", "-both=false", "-o", filepath.Join(t.TempDir(), "c.csv")})
	if err == nil || !strings.Contains(err.Error(), "vet:") {
		t.Errorf("vet gate did not block broken netlist: %v", err)
	}
}

func TestRunResample(t *testing.T) {
	out := filepath.Join(t.TempDir(), "contour.csv")
	err := run([]string{"-cell", "tspc", "-points", "10", "-resample", "6", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 7 { // header + exactly 6 resampled points
		t.Fatalf("lines: %d, want 7", len(lines))
	}
}

func TestRunLibertyFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cell.lib")
	err := run([]string{"-cell", "tspc", "-points", "6", "-both=false", "-format", "lib", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"cell (tspc)", "timing_type : setup_rising;", "latchchar_interdependent_pairs"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunMonteCarloSigma(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sigma.csv")
	err := run([]string{"-cell", "tspc", "-points", "8", "-mc", "3",
		"-sampler", "lhs", "-seed", "5", "-probes", "4", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 { // header + ≥2 covered probes
		t.Fatalf("too few sigma-contour lines: %d", len(lines))
	}

	lib := filepath.Join(t.TempDir(), "sigma.lib")
	err = run([]string{"-cell", "tspc", "-points", "8", "-mc", "3",
		"-sampler", "lhs", "-seed", "5", "-probes", "4", "-format", "lib", "-o", lib})
	if err != nil {
		t.Fatal(err)
	}
	libData, err := os.ReadFile(lib)
	if err != nil {
		t.Fatal(err)
	}
	s := string(libData)
	for _, want := range []string{"cell (tspc)", "statistical corner: 3sigma", "latchchar_interdependent_pairs"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in sigma liberty output", want)
		}
	}
}

func TestRunMonteCarloRejectsNetlist(t *testing.T) {
	deck := "../../internal/vet/testdata/broken_tspc.cir"
	err := run([]string{"-netlist", deck, "-vet=false", "-mc", "2", "-points", "3"})
	if err == nil || !strings.Contains(err.Error(), "built-in cell") {
		t.Errorf("netlist + -mc not rejected: %v", err)
	}
}

func TestRunEnergyColumn(t *testing.T) {
	out := filepath.Join(t.TempDir(), "contour.csv")
	err := run([]string{"-cell", "tspc", "-points", "4", "-both=false", "-energy", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.HasSuffix(lines[0], ",energy_fj") {
		t.Errorf("header: %q", lines[0])
	}
	if len(strings.Split(lines[1], ",")) != 5 {
		t.Errorf("row: %q", lines[1])
	}
}
