package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	u := v.Clone()
	u.Add(w)
	if u[0] != 5 || u[1] != 7 || u[2] != 9 {
		t.Errorf("Add: %v", u)
	}
	u.CopyFrom(v)
	u.Sub(w)
	if u[0] != -3 || u[1] != -3 || u[2] != -3 {
		t.Errorf("Sub: %v", u)
	}
	u.CopyFrom(v)
	u.AddScaled(2, w)
	if u[0] != 9 || u[1] != 12 || u[2] != 15 {
		t.Errorf("AddScaled: %v", u)
	}
	u.CopyFrom(v)
	u.Scale(-1)
	if u[0] != -1 {
		t.Errorf("Scale: %v", u)
	}
	if v.Dot(w) != 32 {
		t.Errorf("Dot = %v", v.Dot(w))
	}
	if (Vector{-3, 2}).NormInf() != 3 {
		t.Error("NormInf wrong")
	}
	if !almostEq((Vector{3, 4}).Norm2(), 5, 1e-14) {
		t.Error("Norm2 wrong")
	}
	u.Zero()
	if u.NormInf() != 0 {
		t.Error("Zero failed")
	}
}

func TestVectorMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Add":       func() { Vector{1}.Add(Vector{1, 2}) },
		"Sub":       func() { Vector{1}.Sub(Vector{1, 2}) },
		"AddScaled": func() { Vector{1}.AddScaled(1, Vector{1, 2}) },
		"Dot":       func() { Vector{1}.Dot(Vector{1, 2}) },
		"CopyFrom":  func() { Vector{1}.CopyFrom(Vector{1, 2}) },
		"Weighted":  func() { Vector{1}.WeightedMaxNorm(Vector{1, 2}, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestWeightedMaxNorm(t *testing.T) {
	v := Vector{1e-4, 2e-6}
	ref := Vector{1.0, 1.0}
	got := v.WeightedMaxNorm(ref, 1e-3, 1e-6)
	// element 0: 1e-4/(1e-6+1e-3) ≈ 0.0999; element 1: 2e-6/1.001e-3 ≈ 0.002
	if !almostEq(got, 1e-4/(1e-6+1e-3), 1e-12) {
		t.Errorf("got %v", got)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Errorf("At/Set/Add wrong: %v", m)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases original")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Errorf("Transpose wrong: %v", tr)
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero failed")
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6]
	for j := 0; j < 3; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64(j+4))
	}
	x := Vector{1, 1, 1}
	y := NewVector(2)
	m.MulVec(x, y)
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec: %v", y)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	prod := a.Mul(Identity(4))
	for i := range a.Data {
		if a.Data[i] != prod.Data[i] {
			t.Fatal("A·I != A")
		}
	}
	prod2 := Identity(4).Mul(a)
	for i := range a.Data {
		if a.Data[i] != prod2.Data[i] {
			t.Fatal("I·A != A")
		}
	}
}

func TestMatMulAssociativeWithVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix(3, 4)
	b := NewMatrix(4, 2)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	x := Vector{1.5, -2.5}
	// (A·B)·x vs A·(B·x)
	ab := a.Mul(b)
	y1 := NewVector(3)
	ab.MulVec(x, y1)
	bx := NewVector(4)
	b.MulVec(x, bx)
	y2 := NewVector(3)
	a.MulVec(bx, y2)
	for i := range y1 {
		if !almostEq(y1[i], y2[i], 1e-12) {
			t.Fatalf("mismatch at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveLinear(a, Vector{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	x, err := SolveLinear(a, Vector{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); err == nil {
		t.Error("expected ErrSingular for rank-deficient matrix")
	}
	z := NewMatrix(3, 3)
	if _, err := Factor(z); err == nil {
		t.Error("expected ErrSingular for zero matrix")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestLUDet(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -2, 1e-12) {
		t.Errorf("Det = %v, want -2", f.Det())
	}
}

func TestLUEmptyMatrix(t *testing.T) {
	f, err := Factor(NewMatrix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(Vector{})
	if len(x) != 0 {
		t.Error("empty solve should yield empty vector")
	}
}

// Property: for random well-conditioned systems, the LU solution satisfies
// A·x ≈ b to tight tolerance.
func TestLURandomResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal boost keeps the condition number sane.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := NewVector(n)
		a.MulVec(x, r)
		r.Sub(b)
		if r.NormInf() > 1e-10*(1+b.NormInf()) {
			t.Fatalf("trial %d: residual %v too large", trial, r.NormInf())
		}
	}
}

// Property: Solve(A, A·x) recovers x.
func TestLURoundTripQuick(t *testing.T) {
	f := func(a11, a12, a21, a22, x1, x2 float64) bool {
		bound := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			return math.Mod(v, 3)
		}
		a := NewMatrix(2, 2)
		// bound() lies in (−3, 3); +8 keeps the matrix strictly diagonally
		// dominant (diagonal ≥ 5 vs off-diagonal < 3) for every draw.
		a.Set(0, 0, bound(a11)+8)
		a.Set(0, 1, bound(a12))
		a.Set(1, 0, bound(a21))
		a.Set(1, 1, bound(a22)+8)
		x := Vector{bound(x1), bound(x2)}
		b := NewVector(2)
		a.MulVec(x, b)
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		return almostEq(got[0], x[0], 1e-9) && almostEq(got[1], x[1], 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolveIntoAliasesSafely(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := Vector{6, 4}
	f.SolveInto(b, b) // solve in place
	if !almostEq(b[0], 2, 1e-14) || !almostEq(b[1], 2, 1e-14) {
		t.Errorf("in-place solve: %v", b)
	}
}

func TestNormInfMatrix(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, -1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 0.5)
	if m.NormInf() != 3 {
		t.Errorf("NormInf = %v", m.NormInf())
	}
}

// circuitLike builds an n×n matrix shaped like an MNA Jacobian: a strong
// diagonal plus a few off-diagonal couplings per row.
func circuitLike(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 4+rng.Float64())
		for k := 0; k < 3; k++ {
			if j := rng.Intn(n); j != i {
				a.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return a
}

// TestSolveBeforeRefactorPanics checks that a zero LU, which holds no
// factorization, refuses to solve instead of returning garbage.
func TestSolveBeforeRefactorPanics(t *testing.T) {
	var f LU
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.SolveInto(Vector{1}, Vector{0})
}

// TestRefactorPivotFloor pins the singularity test: a pivot at or below
// PivotFloor times the largest entry is rejected, one just above it is not.
func TestRefactorPivotFloor(t *testing.T) {
	diag := func(small float64) *Matrix {
		a := NewMatrix(2, 2)
		a.Set(0, 0, 1e3)
		a.Set(1, 1, small)
		return a
	}
	var f LU
	if err := f.Refactor(diag(1e3 * PivotFloor)); !errors.Is(err, ErrSingular) {
		t.Errorf("pivot at the floor: err = %v, want ErrSingular", err)
	}
	if err := f.Refactor(diag(1e3 * PivotFloor * 10)); err != nil {
		t.Errorf("pivot above the floor: %v", err)
	}
}

// TestRefactorSolveZeroAllocs checks the inner-loop contract: once an LU
// has factored a system of its size, Refactor and SolveInto allocate
// nothing.
func TestRefactorSolveZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := circuitLike(rng, 14)
	b, x := NewVector(14), NewVector(14)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var f LU
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Refactor(a); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(b, x)
	})
	if allocs != 0 {
		t.Errorf("Refactor+SolveInto allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkRefactor measures factor+solve on circuit-shaped matrices, from
// the latch cells' size (n=14) up to deck sizes well past any shipped cell.
func BenchmarkRefactor(b *testing.B) {
	for _, n := range []int{14, 100, 300} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := circuitLike(rng, n)
			rhs, x := NewVector(n), NewVector(n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			var f LU
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.Refactor(a); err != nil {
					b.Fatal(err)
				}
				f.SolveInto(rhs, x)
			}
		})
	}
}
