package sparse

import (
	"math"
	"math/rand"
	"testing"

	"latchchar/internal/linalg"
)

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(2, 1, -1)
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if m.At(0, 0) != 3 {
		t.Errorf("At(0,0) = %v, want 3", m.At(0, 0))
	}
	if m.At(2, 1) != -1 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	if m.At(1, 1) != 0 {
		t.Errorf("missing entry should read 0")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	b.Add(1, 1, 5)
	m := b.Build()
	if m.NNZ() != 1 || m.At(1, 1) != 5 {
		t.Errorf("rebuild after reset wrong: %v", m)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Add(2, 0, 1)
}

func TestCSRSortedColumnsAndIndex(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 2)
	b.Add(0, 0, 1)
	m := b.Build()
	if m.Col[0] != 0 || m.Col[1] != 1 {
		t.Errorf("columns not sorted: %v", m.Col)
	}
	if k, ok := m.Index(0, 1); !ok || m.Val[k] != 2 {
		t.Errorf("Index(0,1) = %d,%v", k, ok)
	}
	if _, ok := m.Index(1, 0); ok {
		t.Error("Index of absent entry should be !ok")
	}
}

func TestMulVec(t *testing.T) {
	// [2 0 1; 0 3 0; 0 0 4]
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(0, 2, 1)
	b.Add(1, 1, 3)
	b.Add(2, 2, 4)
	m := b.Build()
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	m.MulVec(x, y)
	want := []float64{5, 6, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec: %v want %v", y, want)
		}
	}
	// MulVecAdd accumulates.
	m.MulVecAdd(2, x, y)
	if y[0] != 15 || y[1] != 18 || y[2] != 36 {
		t.Fatalf("MulVecAdd: %v", y)
	}
}

func TestToDenseFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := linalg.NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if rng.Float64() < 0.4 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	m := FromDense(d)
	back := m.ToDense()
	for i := range d.Data {
		if d.Data[i] != back.Data[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestScatterAdd(t *testing.T) {
	a := FromDense(denseOf(3, map[[2]int]float64{{0, 0}: 1, {1, 2}: 2}))
	b := FromDense(denseOf(3, map[[2]int]float64{{0, 0}: 5, {2, 1}: 3}))
	d := linalg.NewMatrix(3, 3)
	a.ScatterAdd(2, d)
	b.ScatterAdd(10, d)
	if d.At(0, 0) != 2*1+10*5 {
		t.Errorf("At(0,0) = %v", d.At(0, 0))
	}
	if d.At(1, 2) != 4 {
		t.Errorf("At(1,2) = %v", d.At(1, 2))
	}
	if d.At(2, 1) != 30 {
		t.Errorf("At(2,1) = %v", d.At(2, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("ScatterAdd into a mismatched matrix should panic")
		}
	}()
	a.ScatterAdd(1, linalg.NewMatrix(2, 2))
}

// TestScatterAddRandomAgainstDense checks the Jacobian combination the
// solvers form, α·A + β·B, against dense arithmetic on random patterns.
func TestScatterAddRandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		da, db := randomDense(rng, n, 0.3, 0), randomDense(rng, n, 0.3, 0)
		a, b := FromDense(da), FromDense(db)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		d := linalg.NewMatrix(n, n)
		a.ScatterAdd(alpha, d)
		b.ScatterAdd(beta, d)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := alpha*da.At(i, j) + beta*db.At(i, j)
				if math.Abs(d.At(i, j)-want) > 1e-12 {
					t.Fatalf("trial %d (%d,%d): got %v want %v", trial, i, j, d.At(i, j), want)
				}
			}
		}
	}
}

func denseOf(n int, entries map[[2]int]float64) *linalg.Matrix {
	d := linalg.NewMatrix(n, n)
	for k, v := range entries {
		d.Set(k[0], k[1], v)
	}
	return d
}

func randomDense(rng *rand.Rand, n int, density, diagBoost float64) *linalg.Matrix {
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				d.Set(i, j, rng.NormFloat64())
			}
		}
		d.Add(i, i, diagBoost)
	}
	return d
}

// The solvers never factor a CSR matrix directly: they scatter the stamps
// into a dense matrix (ScatterAdd) and factor that with the linalg LU,
// reusing its storage. The tests below drive that pipeline on CSR inputs.

// factorCSR scatters m into a dense matrix and factors it into fresh LU
// storage.
func factorCSR(m *CSR) (*linalg.LU, error) {
	f := new(linalg.LU)
	if err := refactorCSR(f, m); err != nil {
		return nil, err
	}
	return f, nil
}

// refactorCSR scatters m into a dense matrix and refactors f in place.
func refactorCSR(f *linalg.LU, m *CSR) error {
	d := linalg.NewMatrix(m.N, m.N)
	m.ScatterAdd(1, d)
	return f.Refactor(d)
}

func TestLUSolveDiagonal(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 4)
	b.Add(2, 2, 8)
	m := b.Build()
	f, err := factorCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	f.SolveInto([]float64{2, 4, 8}, x)
	for i, v := range x {
		if math.Abs(v-1) > 1e-14 {
			t.Fatalf("x[%d] = %v", i, v)
		}
	}
}

func TestLUSolveNeedsColumnPermutation(t *testing.T) {
	// Anti-diagonal matrix: [0 1; 2 0].
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2)
	m := b.Build()
	f, err := factorCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.SolveInto([]float64{3, 4}, x)
	// x1 = 3, 2·x0 = 4.
	if math.Abs(x[0]-2) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestLUSingularDetected(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 0, 2)
	b.Add(1, 1, 4)
	if _, err := factorCSR(b.Build()); err == nil {
		t.Error("expected ErrSingular for singular matrix")
	}
	z := NewBuilder(2).Build()
	if _, err := factorCSR(z); err == nil {
		t.Error("expected error for empty pattern")
	}
}

func TestLUEmptyMatrix(t *testing.T) {
	f, err := factorCSR(NewBuilder(0).Build())
	if err != nil {
		t.Fatal(err)
	}
	f.SolveInto(nil, nil)
}

func TestLURandomAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(15)
		d := randomDense(rng, n, 0.35, float64(n))
		m := FromDense(d)
		bvec := make(linalg.Vector, n)
		for i := range bvec {
			bvec[i] = rng.NormFloat64()
		}
		want, err := linalg.SolveLinear(d, bvec)
		if err != nil {
			continue // skip the rare singular draw
		}
		f, err := factorCSR(m)
		if err != nil {
			t.Fatalf("trial %d: CSR factorization failed: %v", trial, err)
		}
		got := make([]float64, n)
		f.SolveInto(bvec, got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d x[%d]: CSR %v dense %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLUResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		d := randomDense(rng, n, 0.2, float64(n))
		m := FromDense(d)
		f, err := factorCSR(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		f.SolveInto(b, x)
		r := make([]float64, n)
		m.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d: residual[%d] = %v", trial, i, r[i]-b[i])
			}
		}
	}
}

func TestLURefactorSamePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	d := randomDense(rng, n, 0.3, float64(n))
	m := FromDense(d)
	f, err := factorCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	// Change the values (same pattern) several times and refactor.
	for round := 0; round < 5; round++ {
		m2 := m.Clone()
		for k := range m2.Val {
			m2.Val[k] *= 1 + 0.3*rng.NormFloat64()
		}
		// Keep diagonal dominant so the old pivot order stays valid.
		for i := 0; i < n; i++ {
			if k, ok := m2.Index(i, i); ok {
				m2.Val[k] += float64(n)
			}
		}
		if err := refactorCSR(f, m2); err != nil {
			t.Fatalf("round %d: Refactor: %v", round, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		f.SolveInto(b, x)
		r := make([]float64, n)
		m2.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				t.Fatalf("round %d: residual[%d] = %v", round, i, r[i]-b[i])
			}
		}
	}
}

func TestLURefactorZeroPivotReported(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	m := b.Build()
	f, err := factorCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	// Zero out whichever diagonal was pivoted first; both are pivots here.
	m2.Val[0] = 0
	if err := refactorCSR(f, m2); err == nil {
		t.Error("expected ErrSingular after zeroing a pivot")
	}
}

func TestLUSolveAliasedInPlace(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 2)
	b.Add(1, 1, 5)
	f, err := factorCSR(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{4, 10}
	f.SolveInto(v, v)
	if v[0] != 2 || v[1] != 2 {
		t.Fatalf("in-place solve: %v", v)
	}
}

func TestLUHighFillMatrix(t *testing.T) {
	// Arrow matrix: dense last row/col + diagonal, the classic fill-in
	// stress for sparse orderings. The dense LU fills it completely; the
	// numerics must stay correct regardless.
	n := 25
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i < n-1 {
			b.Add(i, n-1, 1)
			b.Add(n-1, i, 1)
		}
	}
	m := b.Build()
	f, err := factorCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	x := make([]float64, n)
	f.SolveInto(rhs, x)
	r := make([]float64, n)
	m.MulVec(x, r)
	for i := range r {
		if math.Abs(r[i]-rhs[i]) > 1e-10 {
			t.Fatalf("residual[%d] = %v", i, r[i]-rhs[i])
		}
	}
}

// Property: refactoring into reused storage produces bitwise the solutions
// of a fresh factorization, for random same-pattern value sets.
func TestLURefactorEquivalentToFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(15)
		d := randomDense(rng, n, 0.3, float64(n))
		m := FromDense(d)
		reused, err := factorCSR(m)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			m2 := m.Clone()
			for k := range m2.Val {
				m2.Val[k] *= 1 + 0.2*rng.NormFloat64()
			}
			for i := 0; i < n; i++ {
				if k, ok := m2.Index(i, i); ok {
					m2.Val[k] += float64(n)
				}
			}
			if err := refactorCSR(reused, m2); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			fresh, err := factorCSR(m2)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x1 := make([]float64, n)
			x2 := make([]float64, n)
			reused.SolveInto(b, x1)
			fresh.SolveInto(b, x2)
			for i := range x1 {
				if x1[i] != x2[i] {
					t.Fatalf("trial %d: refactor solve differs at %d: %v vs %v", trial, i, x1[i], x2[i])
				}
			}
		}
	}
}

// TestLURefactorRepivots zeroes the diagonal a first factorization pivoted
// on while keeping the matrix nonsingular through its off-diagonal
// entries: a refactorization must choose new pivots, never replay a stale
// order.
func TestLURefactorRepivots(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 2)
	m1 := b.Build()
	f, err := factorCSR(m1)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m1.Clone()
	for i := 0; i < 2; i++ {
		if k, ok := m2.Index(i, i); ok {
			m2.Val[k] = 0
		}
		if k, ok := m2.Index(i, 1-i); ok {
			m2.Val[k] = 3
		}
	}
	if err := refactorCSR(f, m2); err != nil {
		t.Fatalf("refactor with a zeroed diagonal: %v", err)
	}
	x := make([]float64, 2)
	f.SolveInto([]float64{3, 6}, x)
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}
