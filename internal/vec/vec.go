// Package vec provides the dense and sparse linear-algebra kernels used
// throughout ColumnSGD: sparse feature vectors, dense model vectors, and
// CSR matrices for column-partitioned worksets.
//
// Each kernel is a single-threaded, allocation-free BLAS-1 style
// operation. Within a worker, batches are fanned across these kernels by
// the deterministic compute pool in internal/par — fixed chunk boundaries
// and ordered reduction keep results bit-identical to a sequential run at
// any parallelism — while across workers parallelism still comes from
// column partitioning, matching the paper's execution model.
package vec

import (
	"fmt"
	"math"
	"sort"
)

// Sparse is a sparse vector in coordinate form with strictly increasing
// indices. It is the in-memory representation of one data point's feature
// vector (or one column slice of it).
type Sparse struct {
	// Indices holds the positions of the non-zero entries, strictly
	// increasing. Indices and Values have equal length.
	Indices []int32
	// Values holds the non-zero entries.
	Values []float64
}

// NewSparse builds a sparse vector from parallel index/value slices,
// sorting and de-duplicating as needed. Duplicate indices are summed.
func NewSparse(indices []int32, values []float64) (Sparse, error) {
	if len(indices) != len(values) {
		return Sparse{}, fmt.Errorf("vec: index/value length mismatch: %d vs %d", len(indices), len(values))
	}
	// Strictly increasing, non-negative indices have nothing to sort or
	// merge: the result is a plain copy.
	if sortedIndices(indices) {
		return Sparse{
			Indices: append(make([]int32, 0, len(indices)), indices...),
			Values:  append(make([]float64, 0, len(values)), values...),
		}, nil
	}
	type pair struct {
		i int32
		v float64
	}
	pairs := make([]pair, len(indices))
	for k := range indices {
		if indices[k] < 0 {
			return Sparse{}, fmt.Errorf("vec: negative index %d", indices[k])
		}
		pairs[k] = pair{indices[k], values[k]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].i < pairs[b].i })
	out := Sparse{Indices: make([]int32, 0, len(pairs)), Values: make([]float64, 0, len(pairs))}
	for _, p := range pairs {
		if n := len(out.Indices); n > 0 && out.Indices[n-1] == p.i {
			out.Values[n-1] += p.v
			continue
		}
		out.Indices = append(out.Indices, p.i)
		out.Values = append(out.Values, p.v)
	}
	return out, nil
}

// sortedIndices reports whether idx is strictly increasing and
// non-negative.
func sortedIndices(idx []int32) bool {
	prev := int32(-1)
	for _, i := range idx {
		if i <= prev {
			return false
		}
		prev = i
	}
	return true
}

// NNZ returns the number of stored non-zeros.
func (s Sparse) NNZ() int { return len(s.Indices) }

// MaxIndex returns the largest stored index, or -1 for an empty vector.
func (s Sparse) MaxIndex() int32 {
	if len(s.Indices) == 0 {
		return -1
	}
	return s.Indices[len(s.Indices)-1]
}

// Clone returns a deep copy of s.
func (s Sparse) Clone() Sparse {
	return Sparse{
		Indices: append([]int32(nil), s.Indices...),
		Values:  append([]float64(nil), s.Values...),
	}
}

// Dot returns the inner product of s with a dense vector w. Entries of s
// beyond len(w) contribute zero, so a column-partition slice can be dotted
// against its local model partition directly.
func (s Sparse) Dot(w []float64) float64 {
	var sum float64
	for k, idx := range s.Indices {
		if int(idx) < len(w) {
			sum += s.Values[k] * w[idx]
		}
	}
	return sum
}

// DotSquared returns Σ_j w[j]^2 * x[j]^2 over the non-zeros of s. This is
// the ⟨v_f², x²⟩ statistic needed by factorization machines (Eq. 10).
func (s Sparse) DotSquared(w []float64) float64 {
	var sum float64
	for k, idx := range s.Indices {
		if int(idx) < len(w) {
			v := s.Values[k] * w[idx]
			sum += v * s.Values[k] * w[idx]
		}
	}
	return sum
}

// AddScaled accumulates alpha * s into dense vector dst (axpy).
// Entries beyond len(dst) are dropped.
func (s Sparse) AddScaled(dst []float64, alpha float64) {
	for k, idx := range s.Indices {
		if int(idx) < len(dst) {
			dst[idx] += alpha * s.Values[k]
		}
	}
}

// AxpySparse computes dst += alpha * s for a sparse s — the sparse
// counterpart of Axpy. Entries beyond len(dst) are dropped, like
// AddScaled (of which this is the free-function form).
func AxpySparse(dst []float64, alpha float64, s Sparse) {
	s.AddScaled(dst, alpha)
}

// SliceColumns returns the sub-vector of s containing only indices in
// [lo, hi), re-based to start at zero. It shares no storage with s.
func (s Sparse) SliceColumns(lo, hi int32) Sparse {
	start := sort.Search(len(s.Indices), func(i int) bool { return s.Indices[i] >= lo })
	end := sort.Search(len(s.Indices), func(i int) bool { return s.Indices[i] >= hi })
	out := Sparse{
		Indices: make([]int32, end-start),
		Values:  make([]float64, end-start),
	}
	for k := start; k < end; k++ {
		out.Indices[k-start] = s.Indices[k] - lo
		out.Values[k-start] = s.Values[k]
	}
	return out
}

// Norm2 returns the Euclidean norm of s.
func (s Sparse) Norm2() float64 {
	var sum float64
	for _, v := range s.Values {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Equal reports whether s and t have identical stored structure and values.
func (s Sparse) Equal(t Sparse) bool {
	if len(s.Indices) != len(t.Indices) {
		return false
	}
	for k := range s.Indices {
		if s.Indices[k] != t.Indices[k] || s.Values[k] != t.Values[k] {
			return false
		}
	}
	return true
}

// ToDense materializes s as a dense vector of dimension m. Stored indices
// >= m cause a panic, as that indicates a partitioning bug upstream.
func (s Sparse) ToDense(m int) []float64 {
	d := make([]float64, m)
	for k, idx := range s.Indices {
		if int(idx) >= m {
			panic(fmt.Sprintf("vec: index %d out of dense bound %d", idx, m))
		}
		d[idx] = s.Values[k]
	}
	return d
}

// FromDense builds a sparse vector from a dense one, keeping entries with
// |v| > 0.
func FromDense(d []float64) Sparse {
	var s Sparse
	for i, v := range d {
		if v != 0 {
			s.Indices = append(s.Indices, int32(i))
			s.Values = append(s.Values, v)
		}
	}
	return s
}

// Dot computes the inner product of two dense vectors of equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dense dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// Axpy computes dst += alpha * src for dense vectors of equal length.
func Axpy(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

// Scale multiplies every entry of dst by alpha in place.
func Scale(dst []float64, alpha float64) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of a dense vector.
func Norm2(a []float64) float64 {
	var sum float64
	for _, v := range a {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Norm1 returns the L1 norm of a dense vector.
func Norm1(a []float64) float64 {
	var sum float64
	for _, v := range a {
		sum += math.Abs(v)
	}
	return sum
}

// Zero clears a dense vector in place.
func Zero(a []float64) {
	for i := range a {
		a[i] = 0
	}
}

// Sum adds the entries of a.
func Sum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}
