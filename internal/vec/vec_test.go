package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewSparseSortsAndDedups(t *testing.T) {
	s, err := NewSparse([]int32{5, 1, 5, 3}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := []int32{1, 3, 5}
	wantVal := []float64{2, 4, 4}
	if !reflect.DeepEqual(s.Indices, wantIdx) || !reflect.DeepEqual(s.Values, wantVal) {
		t.Fatalf("got %v/%v, want %v/%v", s.Indices, s.Values, wantIdx, wantVal)
	}
}

// TestNewSparseSortedInput: strictly increasing input skips the sort but
// still comes back as a copy (2 allocations), and negative or repeated
// indices still take the sorting path.
func TestNewSparseSortedInput(t *testing.T) {
	idx := []int32{0, 3, 7, 100}
	val := []float64{1, -2, 0.5, 4}
	s, err := NewSparse(idx, val)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Indices, idx) || !reflect.DeepEqual(s.Values, val) {
		t.Fatalf("got %v/%v", s.Indices, s.Values)
	}
	idx[0], val[0] = 9, 9
	if s.Indices[0] != 0 || s.Values[0] != 1 {
		t.Fatal("NewSparse aliased its input")
	}
	idx[0] = 0
	if got := testing.AllocsPerRun(100, func() { _, _ = NewSparse(idx, val) }); got != 2 {
		t.Fatalf("sorted input: %v allocations, want 2", got)
	}
	if s, err := NewSparse([]int32{1, 1, 2}, []float64{1, 2, 3}); err != nil ||
		!reflect.DeepEqual(s.Indices, []int32{1, 2}) || !reflect.DeepEqual(s.Values, []float64{3, 3}) {
		t.Fatalf("repeated index: %v %v", s, err)
	}
	if _, err := NewSparse([]int32{-1, 2}, []float64{1, 1}); err == nil {
		t.Fatal("leading negative index accepted")
	}
	for _, in := range [][]int32{nil, {}} {
		if s, err := NewSparse(in, nil); err != nil || s.Indices == nil || s.Values == nil || s.NNZ() != 0 {
			t.Fatalf("empty input %v: %+v %v", in, s, err)
		}
	}
}

func TestNewSparseErrors(t *testing.T) {
	if _, err := NewSparse([]int32{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := NewSparse([]int32{-1}, []float64{1}); err == nil {
		t.Error("negative index not rejected")
	}
}

func TestSparseDot(t *testing.T) {
	s := Sparse{Indices: []int32{0, 2, 4}, Values: []float64{1, 2, 3}}
	w := []float64{10, 20, 30, 40, 50}
	if got := s.Dot(w); got != 1*10+2*30+3*50 {
		t.Fatalf("dot = %v", got)
	}
	// Indices beyond len(w) contribute zero.
	if got := s.Dot(w[:3]); got != 1*10+2*30 {
		t.Fatalf("truncated dot = %v", got)
	}
}

func TestSparseDotSquared(t *testing.T) {
	s := Sparse{Indices: []int32{1, 3}, Values: []float64{2, 3}}
	w := []float64{0, 5, 0, 7}
	want := (2.0*5)*(2.0*5) + (3.0*7)*(3.0*7)
	if got := s.DotSquared(w); math.Abs(got-want) > 1e-12 {
		t.Fatalf("dotSquared = %v, want %v", got, want)
	}
}

func TestSliceColumns(t *testing.T) {
	s := Sparse{Indices: []int32{0, 3, 5, 9}, Values: []float64{1, 2, 3, 4}}
	sub := s.SliceColumns(3, 9)
	wantIdx := []int32{0, 2}
	wantVal := []float64{2, 3}
	if !reflect.DeepEqual(sub.Indices, wantIdx) || !reflect.DeepEqual(sub.Values, wantVal) {
		t.Fatalf("slice got %v/%v", sub.Indices, sub.Values)
	}
	// Empty slice at the tail.
	if empty := s.SliceColumns(10, 20); empty.NNZ() != 0 {
		t.Fatalf("expected empty slice, got %v", empty)
	}
}

// randomSparse builds a reproducible random sparse vector of dimension m.
func randomSparse(r *rand.Rand, m int) Sparse {
	nnz := r.Intn(m/2 + 1)
	seen := map[int32]bool{}
	var idx []int32
	var val []float64
	for len(idx) < nnz {
		i := int32(r.Intn(m))
		if seen[i] {
			continue
		}
		seen[i] = true
		idx = append(idx, i)
		val = append(val, r.NormFloat64())
	}
	s, err := NewSparse(idx, val)
	if err != nil {
		panic(err)
	}
	return s
}

// Property: slicing a vector into disjoint column ranges and re-assembling
// preserves dot products against any model vector. This is the fundamental
// correctness property behind column-partitioned statistics.
func TestPropertySlicePreservesDot(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		const m = 64
		k := int(kRaw)%7 + 1
		s := randomSparse(r, m)
		w := make([]float64, m)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		full := s.Dot(w)
		var sum float64
		per := (m + k - 1) / k
		for p := 0; p < k; p++ {
			lo, hi := int32(p*per), int32((p+1)*per)
			if hi > m {
				hi = m
			}
			if lo >= hi {
				continue
			}
			sub := s.SliceColumns(lo, hi)
			sum += sub.Dot(w[lo:hi])
		}
		return math.Abs(full-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AddScaled is linear — accumulating alpha*s then beta*s equals
// accumulating (alpha+beta)*s.
func TestPropertyAddScaledLinear(t *testing.T) {
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		r := rand.New(rand.NewSource(seed))
		const m = 32
		s := randomSparse(r, m)
		d1 := make([]float64, m)
		s.AddScaled(d1, a)
		s.AddScaled(d1, b)
		d2 := make([]float64, m)
		s.AddScaled(d2, a+b)
		for i := range d1 {
			if math.Abs(d1[i]-d2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ToDense/FromDense round-trips.
func TestPropertyDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const m = 48
		s := randomSparse(r, m)
		back := FromDense(s.ToDense(m))
		return back.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDenseKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	c := append([]float64(nil), a...)
	Axpy(c, 2, b)
	if !reflect.DeepEqual(c, []float64{9, 12, 15}) {
		t.Fatalf("Axpy = %v", c)
	}
	Scale(c, 0.5)
	if !reflect.DeepEqual(c, []float64{4.5, 6, 7.5}) {
		t.Fatalf("Scale = %v", c)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := Norm1([]float64{-3, 4}); got != 7 {
		t.Fatalf("Norm1 = %v", got)
	}
	if got := Sum(a); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
	Zero(c)
	if !reflect.DeepEqual(c, []float64{0, 0, 0}) {
		t.Fatalf("Zero = %v", c)
	}
}

func TestDensePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	mustPanic("Axpy", func() { Axpy([]float64{1}, 1, []float64{1, 2}) })
	mustPanic("ToDense", func() {
		s := Sparse{Indices: []int32{5}, Values: []float64{1}}
		s.ToDense(3)
	})
}

func TestCSRAppendAndRow(t *testing.T) {
	c := NewCSR(10, 4)
	rows := []Sparse{
		{Indices: []int32{0, 4}, Values: []float64{1, 2}},
		{},
		{Indices: []int32{9}, Values: []float64{3}},
	}
	for _, r := range rows {
		if err := c.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if c.Rows() != 3 || c.NNZ() != 3 {
		t.Fatalf("rows=%d nnz=%d", c.Rows(), c.NNZ())
	}
	for i, want := range rows {
		if got := c.Row(i); !got.Equal(want) {
			t.Fatalf("row %d = %v, want %v", i, got, want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRAppendRowOutOfBounds(t *testing.T) {
	c := NewCSR(5, 1)
	err := c.AppendRow(Sparse{Indices: []int32{5}, Values: []float64{1}})
	if err == nil {
		t.Fatal("out-of-bound row accepted")
	}
}

func TestCSRRowKernels(t *testing.T) {
	c := NewCSR(4, 2)
	_ = c.AppendRow(Sparse{Indices: []int32{1, 3}, Values: []float64{2, 3}})
	w := []float64{9, 5, 9, 7}
	if got := c.RowDot(0, w); got != 2*5+3*7 {
		t.Fatalf("RowDot = %v", got)
	}
	want := (2.0*5)*(2.0*5) + (3.0*7)*(3.0*7)
	if got := c.RowDotSquared(0, w); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RowDotSquared = %v", got)
	}
	dst := make([]float64, 4)
	c.RowAddScaled(0, dst, 2)
	if !reflect.DeepEqual(dst, []float64{0, 4, 0, 6}) {
		t.Fatalf("RowAddScaled = %v", dst)
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	mk := func() *CSR {
		c := NewCSR(10, 2)
		_ = c.AppendRow(Sparse{Indices: []int32{1, 2}, Values: []float64{1, 2}})
		return c
	}
	cases := []struct {
		name   string
		mutate func(*CSR)
	}{
		{"indptr start", func(c *CSR) { c.IndPtr[0] = 1 }},
		{"indptr monotone", func(c *CSR) { c.IndPtr = append(c.IndPtr, 0) }},
		{"index order", func(c *CSR) { c.Indices[0], c.Indices[1] = c.Indices[1], c.Indices[0] }},
		{"index bound", func(c *CSR) { c.Indices[1] = 10 }},
		{"nan value", func(c *CSR) { c.Values[0] = math.NaN() }},
		{"length mismatch", func(c *CSR) { c.Values = c.Values[:1] }},
	}
	for _, tc := range cases {
		c := mk()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

// Property: CSR assembled from rows reproduces each row exactly and
// preserves per-row dot products.
func TestPropertyCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const m = 40
		n := r.Intn(20) + 1
		c := NewCSR(m, n)
		rows := make([]Sparse, n)
		for i := range rows {
			rows[i] = randomSparse(r, m)
			if err := c.AppendRow(rows[i]); err != nil {
				return false
			}
		}
		if c.Validate() != nil {
			return false
		}
		w := make([]float64, m)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		for i := range rows {
			if !c.Row(i).Equal(rows[i]) {
				return false
			}
			if math.Abs(c.RowDot(i, w)-rows[i].Dot(w)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSRSizeBytes(t *testing.T) {
	c := NewCSR(10, 1)
	_ = c.AppendRow(Sparse{Indices: []int32{1, 2}, Values: []float64{1, 2}})
	// 2 indptr entries * 8 + 2 indices * 4 + 2 values * 8
	if got := c.SizeBytes(); got != 2*8+2*4+2*8 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestCSRClone(t *testing.T) {
	c := NewCSR(10, 1)
	_ = c.AppendRow(Sparse{Indices: []int32{1}, Values: []float64{7}})
	d := c.Clone()
	d.Values[0] = 99
	if c.Values[0] != 7 {
		t.Fatal("Clone shares storage")
	}
}

func TestSparseCloneAndNorm(t *testing.T) {
	s := Sparse{Indices: []int32{0, 1}, Values: []float64{3, 4}}
	cl := s.Clone()
	cl.Values[0] = 99
	if s.Values[0] != 3 {
		t.Fatal("Clone shares storage")
	}
	if s.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", s.Norm2())
	}
	if s.MaxIndex() != 1 {
		t.Fatalf("MaxIndex = %d", s.MaxIndex())
	}
	var empty Sparse
	if empty.MaxIndex() != -1 {
		t.Fatal("empty MaxIndex should be -1")
	}
}
