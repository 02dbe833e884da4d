package model

import (
	"math"
	"math/rand"
	"testing"

	"columnsgd/internal/par"
	"columnsgd/internal/vec"
)

// synthBatch builds a deterministic sparse batch over m features.
func synthBatch(n, m, nnz int, classes int, seed int64) Batch {
	r := rand.New(rand.NewSource(seed))
	b := Batch{Rows: make([]vec.Sparse, n), Labels: make([]float64, n)}
	for i := 0; i < n; i++ {
		idx := make([]int32, 0, nnz)
		val := make([]float64, 0, nnz)
		seen := map[int32]bool{}
		for len(idx) < nnz {
			j := int32(r.Intn(m))
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, j)
			val = append(val, r.NormFloat64())
		}
		s, err := vec.NewSparse(idx, val)
		if err != nil {
			panic(err)
		}
		b.Rows[i] = s
		if classes > 0 {
			b.Labels[i] = float64(r.Intn(classes))
		} else if r.Intn(2) == 0 {
			b.Labels[i] = -1
		} else {
			b.Labels[i] = 1
		}
	}
	return b
}

func testModels(t *testing.T) []Model {
	t.Helper()
	mlr, err := NewMLR(3)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewFM(4)
	if err != nil {
		t.Fatal(err)
	}
	return []Model{LR{}, SVM{}, LeastSquares{}, mlr, fm}
}

// TestParallelStatsBitIdentical: for every model and every pool size,
// ParallelStats must match the sequential kernel bit for bit — chunking
// assigns slots, it never changes arithmetic.
func TestParallelStatsBitIdentical(t *testing.T) {
	const m = 600
	for _, mdl := range testModels(t) {
		classes := 0
		if mlr, ok := mdl.(MLR); ok {
			classes = mlr.Classes()
		}
		for _, n := range []int{1, 16, 17, 100, 257} {
			batch := synthBatch(n, m, 12, classes, 7)
			p := NewParams(mdl.ParamRows(), m)
			mdl.Init(p, rand.New(rand.NewSource(3)))
			want := mdl.PartialStats(p, batch, nil)
			for _, procs := range []int{1, 2, 4, 7} {
				pool := par.New(procs)
				got := ParallelStats(pool, mdl, p, batch, nil)
				pool.Shutdown()
				if len(got) != len(want) {
					t.Fatalf("%s n=%d P=%d: %d stats, want %d", mdl.Name(), n, procs, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d P=%d: stat %d = %v, want %v", mdl.Name(), n, procs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestParallelGradientBitIdenticalAcrossP: the chunked gradient must be
// byte-stable across every pool size (including nil), and equal to the
// sequential kernel whenever the batch fits one chunk.
func TestParallelGradientBitIdenticalAcrossP(t *testing.T) {
	const m = 600
	for _, mdl := range testModels(t) {
		classes := 0
		if mlr, ok := mdl.(MLR); ok {
			classes = mlr.Classes()
		}
		for _, n := range []int{1, 16, 40, 257} {
			batch := synthBatch(n, m, 12, classes, 11)
			p := NewParams(mdl.ParamRows(), m)
			mdl.Init(p, rand.New(rand.NewSource(5)))
			stats := mdl.PartialStats(p, batch, nil)

			var nilPool *par.Pool
			ref := NewParams(mdl.ParamRows(), m)
			ParallelGradient(nilPool, mdl, p, batch, stats, ref)

			if par.NumChunks(n, batchGrain(n)) <= 1 {
				seq := NewParams(mdl.ParamRows(), m)
				mdl.Gradient(p, batch, stats, seq)
				if !bitEqual(ref, seq) {
					t.Fatalf("%s n=%d: one-chunk parallel gradient differs from sequential kernel", mdl.Name(), n)
				}
			}
			for _, procs := range []int{2, 4, 7} {
				pool := par.New(procs)
				got := NewParams(mdl.ParamRows(), m)
				ParallelGradient(pool, mdl, p, batch, stats, got)
				pool.Shutdown()
				if !bitEqual(ref, got) {
					t.Fatalf("%s n=%d P=%d: gradient differs from inline chunked reference", mdl.Name(), n, procs)
				}
			}
		}
	}
}

// TestParallelGradientMatchesSequentialClosely: chunked mean-of-means
// reassembly is algebraically the batch mean; numerically it may differ
// from the row-order fold only in the last bits.
func TestParallelGradientMatchesSequentialClosely(t *testing.T) {
	const m, n = 400, 128
	for _, mdl := range testModels(t) {
		classes := 0
		if mlr, ok := mdl.(MLR); ok {
			classes = mlr.Classes()
		}
		batch := synthBatch(n, m, 10, classes, 13)
		p := NewParams(mdl.ParamRows(), m)
		mdl.Init(p, rand.New(rand.NewSource(9)))
		stats := mdl.PartialStats(p, batch, nil)
		seq := NewParams(mdl.ParamRows(), m)
		mdl.Gradient(p, batch, stats, seq)
		chunked := NewParams(mdl.ParamRows(), m)
		var nilPool *par.Pool
		ParallelGradient(nilPool, mdl, p, batch, stats, chunked)
		for r := range seq.W {
			for j := range seq.W[r] {
				a, b := seq.W[r][j], chunked.W[r][j]
				if d := math.Abs(a - b); d > 1e-12*(1+math.Abs(a)) {
					t.Fatalf("%s grad[%d][%d]: sequential %v vs chunked %v", mdl.Name(), r, j, a, b)
				}
			}
		}
	}
}

func bitEqual(a, b *Params) bool {
	if a.Rows() != b.Rows() || a.Width() != b.Width() {
		return false
	}
	for r := range a.W {
		for j := range a.W[r] {
			if math.Float64bits(a.W[r][j]) != math.Float64bits(b.W[r][j]) {
				return false
			}
		}
	}
	return true
}

// denseReference is the historical f64 chunk merge, written out in
// full: every chunk's kernel into a fresh zeroed block, folded over the
// whole width in ascending chunk order. Both sides of the
// SparseGradient gate must reproduce it bit for bit.
func denseReference(mdl Model, p *Params, batch Batch, stats []float64) *Params {
	n := batch.Len()
	grain := batchGrain(n)
	spp := mdl.StatsPerPoint()
	out := NewParams(p.Rows(), p.Width())
	for c := 0; c < par.NumChunks(n, grain); c++ {
		lo, hi := par.Bounds(c, n, grain)
		g := NewParams(p.Rows(), p.Width())
		mdl.Gradient(p, Batch{Rows: batch.Rows[lo:hi], Labels: batch.Labels[lo:hi]}, stats[lo*spp:hi*spp], g)
		for r := range out.W {
			vec.Axpy(out.W[r], float64(hi-lo)/float64(n), g.W[r])
		}
	}
	return out
}

// drainClean empties the clean scratch pool and fails if any block in
// it holds a non-zero slot: the sparse merge must hand every block back
// all-zero, or the next sparse call would add stale values.
func drainClean(t *testing.T, what string) {
	t.Helper()
	for {
		g, _ := cleanScratch.Get().(*Params)
		if g == nil {
			return
		}
		if g.NNZ() != 0 {
			t.Fatalf("%s: clean scratch block returned with %d non-zeros", what, g.NNZ())
		}
	}
}

// TestGradientGateBitIdentical runs every built-in model on a shape on
// each side of the density gate and checks ParallelGradient and
// AccumulateGradient against the written-out dense merge, at P = 1, 2, 4.
// Each shape runs twice per P, so the second call reuses pooled blocks.
func TestGradientGateBitIdentical(t *testing.T) {
	shapes := []struct {
		name       string
		n, m, nnz  int
		wantSparse bool
	}{
		{"sparse", 100, 4096, 4, true}, // 400 nnz · 8 < 4096
		{"dense", 100, 600, 12, false}, // 1200 nnz · 8 ≥ 600
	}
	for _, sh := range shapes {
		for _, mdl := range testModels(t) {
			classes := 0
			if mlr, ok := mdl.(MLR); ok {
				classes = mlr.Classes()
			}
			batch := synthBatch(sh.n, sh.m, sh.nnz, classes, 17)
			if got := SparseGradient(mdl, batch, sh.m); got != sh.wantSparse {
				t.Fatalf("%s %s: SparseGradient = %v, want %v", sh.name, mdl.Name(), got, sh.wantSparse)
			}
			p := NewParams(mdl.ParamRows(), sh.m)
			mdl.Init(p, rand.New(rand.NewSource(19)))
			stats := mdl.PartialStats(p, batch, nil)
			want := denseReference(mdl, p, batch, stats)
			for _, procs := range []int{1, 2, 4} {
				pool := par.New(procs)
				for rep := 0; rep < 2; rep++ {
					got := NewParams(mdl.ParamRows(), sh.m)
					AccumulateGradient(pool, mdl, p, batch, stats, got)
					if !bitEqual(want, got) {
						t.Fatalf("%s %s P=%d rep %d: AccumulateGradient differs from the dense merge", sh.name, mdl.Name(), procs, rep)
					}
					dirty := NewParams(mdl.ParamRows(), sh.m)
					for r := range dirty.W {
						for j := range dirty.W[r] {
							dirty.W[r][j] = 3
						}
					}
					ParallelGradient(pool, mdl, p, batch, stats, dirty)
					if !bitEqual(want, dirty) {
						t.Fatalf("%s %s P=%d rep %d: ParallelGradient over a dirty block differs from the dense merge", sh.name, mdl.Name(), procs, rep)
					}
					drainClean(t, sh.name+" "+mdl.Name())
				}
				pool.Shutdown()
			}
		}
	}
}

// spill is a model without the built-in marker whose gradient writes
// every column, as a custom model may: it must stay on the dense merge,
// and its dirty blocks must never reach the clean pool.
type spill struct{ Model }

func (s spill) Gradient(p *Params, batch Batch, stats []float64, grad *Params) {
	grad.Zero()
	s.Model.Gradient(p, batch, stats, grad)
	for r := range grad.W {
		for j := range grad.W[r] {
			grad.W[r][j] += 0.5
		}
	}
}

func TestGradientUnmarkedModelStaysDense(t *testing.T) {
	const n, m = 100, 4096
	mdl := spill{LR{}}
	batch := synthBatch(n, m, 4, 0, 23)
	if SparseGradient(mdl, batch, m) {
		t.Fatal("an unmarked model took the support-only path")
	}
	if !SparseGradient(LR{}, batch, m) {
		t.Fatal("shape is not sparse for the built-in model; the test proves nothing")
	}
	p := NewParams(1, m)
	stats := mdl.PartialStats(p, batch, nil)
	want := denseReference(mdl, p, batch, stats)
	pool := par.New(2)
	defer pool.Shutdown()
	for rep := 0; rep < 2; rep++ {
		got := NewParams(1, m)
		AccumulateGradient(pool, mdl, p, batch, stats, got)
		if !bitEqual(want, got) {
			t.Fatalf("rep %d: unmarked model's gradient differs from the dense merge", rep)
		}
		drainClean(t, "spill")
		// A built-in call right after must still see clean blocks.
		ref := denseReference(LR{}, p, batch, stats)
		lr := NewParams(1, m)
		AccumulateGradient(pool, LR{}, p, batch, stats, lr)
		if !bitEqual(ref, lr) {
			t.Fatalf("rep %d: built-in gradient after an unmarked model differs", rep)
		}
	}
}
