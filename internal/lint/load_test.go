package lint

import "testing"

// TestLoadModule exercises the offline driver end to end on the repository
// itself: go list -export enumeration, export-data type checking, the module
// index, and a full run of the suite (which must be clean — CI enforces the
// same via cmd/latchlint).
func TestLoadModule(t *testing.T) {
	pkgs, mod, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if mod.ModulePath != "latchchar" {
		t.Fatalf("module path = %q, want latchchar", mod.ModulePath)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || p.TypesInfo == nil || len(p.Syntax) == 0 {
			t.Fatalf("package %s loaded without types or syntax", p.PkgPath)
		}
	}
	// The tree carries no "Deprecated:" markers (the last one, circuit.Lint,
	// is gone), so the deprecation index over it must be empty: an entry
	// here is a false positive of the index builder. TestDeprecated covers
	// the positive case on testdata.
	if len(mod.Deprecated) != 0 {
		t.Errorf("module index recorded deprecated identifiers on a tree that has none: %v", mod.Deprecated)
	}

	findings, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("latchlint finding on the tree: %s: [%s] %s", f.Position, f.Analyzer.Name, f.Message)
	}
}
