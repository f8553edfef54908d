package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization encounters a pivot that is
// exactly zero or negligibly small relative to the matrix scale.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// PivotFloor is the singularity test: a pivot no larger than PivotFloor
// times the largest absolute matrix entry is rejected. Circuit Jacobians
// are badly scaled (conductances near 1e-3 S next to a 1e-12 S gmin), so the
// floor is relative to the largest entry rather than absolute.
const PivotFloor = 1e-13

// LU holds the LU factorization PA = LU of a square matrix with partial
// (row) pivoting. L has unit diagonal and is stored, together with U, in lu.
// Its storage is reused across Refactor calls, so a solver that factors
// same-size systems over and over (the transient Newton loop) neither
// factors nor solves with an allocation after the first call. An LU is not
// safe for concurrent use.
type LU struct {
	n    int
	lu   []float64 // row-major combined L (strict lower) and U (upper)
	perm []int     // perm[i] = original row placed at position i
	sign int       // permutation parity, for Det
	y    Vector    // Solve scratch
}

// Factor computes the LU factorization of a into fresh storage. The input
// matrix is not modified.
func Factor(a *Matrix) (*LU, error) {
	f := new(LU)
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor computes the LU factorization of a into f's storage, growing it
// only when a is larger than any matrix f held before. The input matrix is
// not modified. It returns ErrSingular if a pivot falls to PivotFloor times
// the largest entry of a; f is then unusable until the next successful
// Refactor.
func (f *LU) Refactor(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Factor of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	f.n = n
	if cap(f.lu) < n*n {
		f.lu = make([]float64, n*n)
		f.perm = make([]int, n)
		f.y = make(Vector, n)
	}
	f.lu, f.perm, f.y = f.lu[:n*n], f.perm[:n], f.y[:n]
	lu := f.lu
	scale := 0.0
	for i, v := range a.Data {
		lu[i] = v
		if v = math.Abs(v); v > scale {
			scale = v
		}
	}
	for i := range f.perm {
		f.perm[i] = i
	}
	f.sign = 1
	if n > 0 && scale == 0 {
		return ErrSingular
	}
	floor := scale * PivotFloor
	for k := 0; k < n; k++ {
		// Partial pivoting: the largest magnitude in column k, first index
		// on ties, so the pivot sequence is a pure function of the values.
		p, best := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best <= floor {
			return ErrSingular
		}
		rowK := lu[k*n : (k+1)*n]
		if p != k {
			rowP := lu[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.perm[k], f.perm[p] = f.perm[p], f.perm[k]
			f.sign = -f.sign
		}
		piv := rowK[k]
		for i := k + 1; i < n; i++ {
			rowI := lu[i*n : (i+1)*n]
			m := rowI[k] / piv
			rowI[k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b using the factorization. b is not modified; the
// solution is returned in a new vector.
func (f *LU) Solve(b Vector) Vector {
	x := NewVector(f.n)
	f.SolveInto(b, x)
	return x
}

// SolveInto solves A·x = b, writing the solution into x without allocating.
// b and x may alias only if they are the same slice.
func (f *LU) SolveInto(b, x Vector) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("linalg: Solve dimension mismatch")
	}
	// Apply permutation: y = P·b.
	y := f.y
	for i := 0; i < n; i++ {
		y[i] = b[f.perm[i]]
	}
	// Forward substitution L·z = y (unit diagonal).
	for i := 1; i < n; i++ {
		s := y[i]
		row := f.lu[i*n : i*n+i]
		for j, l := range row {
			s -= l * y[j]
		}
		y[i] = s
	}
	// Back substitution U·x = z.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		row := f.lu[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	copy(x, y)
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveLinear is a convenience that factors a and solves a single system.
func SolveLinear(a *Matrix, b Vector) (Vector, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
