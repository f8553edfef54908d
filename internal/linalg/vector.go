// Package linalg provides dense vectors, dense matrices and the LU solver
// with partial pivoting that every simulator solve goes through: the
// transient Newton loop, its sensitivity solves and the DC operating point
// scatter their sparse Jacobians into a dense n×n matrix and factor it here.
// Latch cells have a dozen or so unknowns, where a dense factorization beats
// any sparse ordering on both speed and determinism (DESIGN §2).
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// CopyFrom copies w into v. The lengths must match.
func (v Vector) CopyFrom(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: CopyFrom length mismatch %d vs %d", len(v), len(w)))
	}
	copy(v, w)
}

// Add sets v = v + w.
func (v Vector) Add(w Vector) {
	if len(v) != len(w) {
		panic("linalg: Add length mismatch")
	}
	for i := range v {
		v[i] += w[i]
	}
}

// Sub sets v = v − w.
func (v Vector) Sub(w Vector) {
	if len(v) != len(w) {
		panic("linalg: Sub length mismatch")
	}
	for i := range v {
		v[i] -= w[i]
	}
}

// AddScaled sets v = v + s·w.
func (v Vector) AddScaled(s float64, w Vector) {
	if len(v) != len(w) {
		panic("linalg: AddScaled length mismatch")
	}
	for i := range v {
		v[i] += s * w[i]
	}
}

// Scale sets v = s·v.
func (v Vector) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns vᵀw.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// NormInf returns the maximum absolute element, or 0 for an empty vector.
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm.
func (v Vector) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// WeightedMaxNorm returns maxᵢ |v[i]| / (atol + rtol·|ref[i]|), the scaled
// norm used for Newton and integrator convergence checks. ref supplies the
// per-element magnitude scale; it must have the same length as v.
func (v Vector) WeightedMaxNorm(ref Vector, rtol, atol float64) float64 {
	if len(v) != len(ref) {
		panic("linalg: WeightedMaxNorm length mismatch")
	}
	m := 0.0
	for i, x := range v {
		w := math.Abs(x) / (atol + rtol*math.Abs(ref[i]))
		if w > m {
			m = w
		}
	}
	return m
}
