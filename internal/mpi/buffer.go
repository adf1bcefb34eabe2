package mpi

import (
	"fmt"
	"math"
)

// Vector is a typed message buffer. A vector either carries real elements
// (tests verify reductions bit-for-bit) or is phantom — it knows only its
// type and length, so large-scale sweeps skip data movement while every
// algorithm runs the identical communication schedule. Sub-vector views
// share storage with their parent, which is how partition-based
// algorithms (reduce-scatter, DPML partitions) address slices of a
// buffer without copies.
//
//dpml:owner shared
type Vector struct {
	dtype   Datatype
	n       int
	phantom bool
	f32     []float32
	f64     []float64
	i32     []int32
	i64     []int64
}

// NewVector allocates a zeroed vector of n real elements.
func NewVector(d Datatype, n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("mpi: NewVector(%d)", n))
	}
	v := &Vector{dtype: d, n: n}
	switch d {
	case Float32:
		v.f32 = make([]float32, n)
	case Float64:
		v.f64 = make([]float64, n)
	case Int32:
		v.i32 = make([]int32, n)
	case Int64:
		v.i64 = make([]int64, n)
	default:
		panic(fmt.Sprintf("mpi: unknown datatype %d", d))
	}
	return v
}

// NewPhantom builds a size-only vector of n elements: communication and
// compute costs are charged normally, but no bytes move.
func NewPhantom(d Datatype, n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("mpi: NewPhantom(%d)", n))
	}
	return &Vector{dtype: d, n: n, phantom: true}
}

// Type returns the element datatype.
func (v *Vector) Type() Datatype { return v.dtype }

// Len returns the element count.
func (v *Vector) Len() int { return v.n }

// Bytes returns the buffer size in bytes.
func (v *Vector) Bytes() int { return v.n * v.dtype.Size() }

// Phantom reports whether the vector is size-only.
func (v *Vector) Phantom() bool { return v.phantom }

// Float64s returns the underlying float64 storage (nil for phantom or
// other datatypes).
func (v *Vector) Float64s() []float64 { return v.f64 }

// Float32s returns the underlying float32 storage.
func (v *Vector) Float32s() []float32 { return v.f32 }

// Int32s returns the underlying int32 storage.
func (v *Vector) Int32s() []int32 { return v.i32 }

// Int64s returns the underlying int64 storage.
func (v *Vector) Int64s() []int64 { return v.i64 }

// Slice returns a view of elements [lo, hi) sharing storage with v.
func (v *Vector) Slice(lo, hi int) *Vector {
	if lo < 0 || hi < lo || hi > v.n {
		panic(fmt.Sprintf("mpi: Slice(%d,%d) of %d elements", lo, hi, v.n))
	}
	s := &Vector{dtype: v.dtype, n: hi - lo, phantom: v.phantom}
	if v.phantom {
		return s
	}
	switch v.dtype {
	case Float32:
		s.f32 = v.f32[lo:hi]
	case Float64:
		s.f64 = v.f64[lo:hi]
	case Int32:
		s.i32 = v.i32[lo:hi]
	case Int64:
		s.i64 = v.i64[lo:hi]
	}
	return s
}

// Clone returns an independent copy of v (phantomness included).
func (v *Vector) Clone() *Vector {
	c := &Vector{dtype: v.dtype, n: v.n, phantom: v.phantom}
	if v.phantom {
		return c
	}
	switch v.dtype {
	case Float32:
		c.f32 = append([]float32(nil), v.f32...)
	case Float64:
		c.f64 = append([]float64(nil), v.f64...)
	case Int32:
		c.i32 = append([]int32(nil), v.i32...)
	case Int64:
		c.i64 = append([]int64(nil), v.i64...)
	}
	return c
}

// Like returns a zeroed vector of v's datatype, length and phantomness,
// sharing nothing with v: a receive buffer for a payload shaped like v.
func (v *Vector) Like() *Vector {
	if v.phantom {
		return NewPhantom(v.dtype, v.n)
	}
	return NewVector(v.dtype, v.n)
}

// CopyFrom copies src's elements into v. Types and lengths must match.
// Copies involving a phantom on either side only validate the shape.
func (v *Vector) CopyFrom(src *Vector) {
	if v.dtype != src.dtype || v.n != src.n {
		panic(fmt.Sprintf("mpi: CopyFrom shape mismatch: %v[%d] <- %v[%d]",
			v.dtype, v.n, src.dtype, src.n))
	}
	if v.phantom || src.phantom {
		return
	}
	switch v.dtype {
	case Float32:
		copy(v.f32, src.f32)
	case Float64:
		copy(v.f64, src.f64)
	case Int32:
		copy(v.i32, src.i32)
	case Int64:
		copy(v.i64, src.i64)
	}
}

// Fill sets every element to x (converted to the datatype); no-op on
// phantoms.
func (v *Vector) Fill(x float64) {
	if v.phantom {
		return
	}
	switch v.dtype {
	case Float32:
		for i := range v.f32 {
			v.f32[i] = float32(x)
		}
	case Float64:
		for i := range v.f64 {
			v.f64[i] = x
		}
	case Int32:
		for i := range v.i32 {
			v.i32[i] = int32(x)
		}
	case Int64:
		for i := range v.i64 {
			v.i64[i] = int64(x)
		}
	}
}

// At returns element i as a float64 (phantoms read as 0).
func (v *Vector) At(i int) float64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("mpi: At(%d) of %d elements", i, v.n))
	}
	if v.phantom {
		return 0
	}
	switch v.dtype {
	case Float32:
		return float64(v.f32[i])
	case Float64:
		return v.f64[i]
	case Int32:
		return float64(v.i32[i])
	case Int64:
		return float64(v.i64[i])
	}
	return 0
}

// Set stores x into element i (converted to the datatype); no-op on
// phantoms.
func (v *Vector) Set(i int, x float64) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("mpi: Set(%d) of %d elements", i, v.n))
	}
	if v.phantom {
		return
	}
	switch v.dtype {
	case Float32:
		v.f32[i] = float32(x)
	case Float64:
		v.f64[i] = x
	case Int32:
		v.i32[i] = int32(x)
	case Int64:
		v.i64[i] = int64(x)
	}
}

// EqualWithin reports whether two real vectors agree elementwise within
// tol (absolute or relative, whichever is looser). Phantom vectors compare
// by shape only.
func (v *Vector) EqualWithin(o *Vector, tol float64) bool {
	if v.dtype != o.dtype || v.n != o.n {
		return false
	}
	if v.phantom || o.phantom {
		return v.phantom == o.phantom
	}
	for i := 0; i < v.n; i++ {
		a, b := v.At(i), o.At(i)
		d := math.Abs(a - b)
		if d <= tol {
			continue
		}
		if d <= tol*math.Max(math.Abs(a), math.Abs(b)) {
			continue
		}
		return false
	}
	return true
}
