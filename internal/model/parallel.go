package model

import (
	"fmt"
	"sync"

	"columnsgd/internal/par"
	"columnsgd/internal/vec"
)

// Deterministic chunking of a batch: boundaries are a pure function of
// the batch size (never of pool parallelism), per the par package
// contract. Small batches stay in one chunk — and one-chunk calls take
// the plain sequential kernel path, bit-identical to the historical
// arithmetic.
const (
	// minGrain is the smallest rows-per-chunk worth dispatching.
	minGrain = 16
	// maxBatchChunks bounds chunk count so dispatch overhead stays flat
	// as batches grow.
	maxBatchChunks = 64
)

// batchGrain returns the chunk grain for an n-row batch. Pure function
// of n.
func batchGrain(n int) int {
	g := (n + maxBatchChunks - 1) / maxBatchChunks
	if g < minGrain {
		g = minGrain
	}
	return g
}

// ParallelStats computes m.PartialStats over batch, fanning fixed row
// chunks across pool (nil pool ⇒ inline). The result is bit-identical to
// the sequential m.PartialStats call for every pool size: each point's
// statistics occupy a dedicated slot of the output, so chunking changes
// no arithmetic at all — only which goroutine fills which slots.
//
// dst is reused when it has capacity, like Model.PartialStats.
func ParallelStats(pool *par.Pool, m Model, p *Params, batch Batch, dst []float64) []float64 {
	n := batch.Len()
	spp := m.StatsPerPoint()
	need := n * spp
	grain := batchGrain(n)
	if pool.Procs() == 1 || par.NumChunks(n, grain) <= 1 {
		return m.PartialStats(p, batch, dst)
	}
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	pool.Run(n, grain, func(c, lo, hi int) {
		sub := Batch{Rows: batch.Rows[lo:hi], Labels: batch.Labels[lo:hi]}
		// Hand the kernel a zero-length slice with exactly the chunk's
		// capacity: a conforming PartialStats appends in place and the
		// chunk's statistics land directly in dst[lo*spp:hi*spp].
		out := m.PartialStats(p, sub, dst[lo*spp:lo*spp:hi*spp])
		if len(out) != (hi-lo)*spp {
			panic(fmt.Sprintf("model: %s.PartialStats returned %d stats for a %d-row chunk (want %d)",
				m.Name(), len(out), hi-lo, (hi-lo)*spp))
		}
		if &out[0] != &dst[lo*spp] {
			// The kernel reallocated (non-append implementation); copy
			// the chunk back into its slot.
			copy(dst[lo*spp:hi*spp], out)
		}
	})
	return dst
}

// The chunk merge keeps two scratch pools. denseScratch blocks go back
// dirty, so a dense call clears each block before its kernel runs.
// cleanScratch blocks go back all-zero: the sparse merge drains every
// slot a kernel wrote. Blocks never move between the two, so a dirty
// block cannot reach the sparse path. Blocks of the wrong shape are
// simply dropped back to the allocator.
var (
	denseScratch = sync.Pool{New: func() interface{} { return (*Params)(nil) }}
	cleanScratch = sync.Pool{New: func() interface{} { return (*Params)(nil) }}
)

func getScratch(pool *sync.Pool, rows, width int) *Params {
	if g, _ := pool.Get().(*Params); g != nil && g.Rows() == rows && g.Width() == width {
		return g
	}
	return NewParams(rows, width)
}

// supportConfined marks the built-in models: their Gradient accumulates
// into grad and writes only the columns the batch's rows index. A custom
// model may write any column, so it never takes a support-only path.
type supportConfined interface{ supportConfined() }

func (LR) supportConfined()           {}
func (SVM) supportConfined()          {}
func (LeastSquares) supportConfined() {}
func (MLR) supportConfined()          {}
func (FM) supportConfined()           {}

// sparseRatio is the number of f64 slots in a 64-byte cache line. A
// batch with nnz·sparseRatio < width touches fewer cache lines than a
// width-wide block holds, even if no two of its non-zeros share a line.
const sparseRatio = 8

// SparseGradient reports whether m's gradient over batch, in a block of
// the given width, is worth handling at the batch's columns alone: m is
// a built-in model, so the gradient is zero everywhere else, and the
// batch is sparse against the width. It is a pure function of its
// inputs, so every caller that asks about one batch gets one answer.
func SparseGradient(m Model, batch Batch, width int) bool {
	_, ok := m.(supportConfined)
	return ok && batch.NNZ()*sparseRatio < int64(width)
}

// ParallelGradient computes m.Gradient over batch into grad, fanning
// fixed row chunks across pool (nil pool ⇒ inline). Each chunk computes
// its sub-batch's mean gradient into pooled scratch; the partials are
// then combined in ascending chunk order, rescaled by chunkRows/batchRows
// so the result is the batch mean. Whatever grad held on entry is
// overwritten.
//
// Determinism: chunk boundaries depend only on the batch size and the
// reduction order is fixed, so the result is bit-identical for every
// pool size — including nil and shut-down pools, which run the identical
// chunked arithmetic inline. One-chunk batches (≤ minGrain rows) take
// the plain sequential kernel, preserving historical bit patterns.
func ParallelGradient(pool *par.Pool, m Model, p *Params, batch Batch, stats []float64, grad *Params) {
	grad.Zero()
	AccumulateGradient(pool, m, p, batch, stats, grad)
}

// AccumulateGradient is ParallelGradient for a grad that arrives
// all-zero, as a caller that keeps its gradient block clean between
// steps has it; it skips the full-width clear and is bit-identical to
// ParallelGradient.
//
// The merge is chosen per call by SparseGradient. A dense call clears a
// block per chunk and folds each block over the full width with
// vec.Axpy. A sparse call takes all-zero blocks and folds by walking
// each chunk's row indices, draining every visited slot into grad and
// re-zeroing it: O(batch·nnz) instead of O(chunks·width), and the block
// returns to its pool clean. Each slot still receives its chunk
// contributions in ascending chunk order, and a slot revisited through a
// repeated index adds +0, which changes no bit of a sum that started at
// +0 — so both merges give the same bits.
func AccumulateGradient(pool *par.Pool, m Model, p *Params, batch Batch, stats []float64, grad *Params) {
	n := batch.Len()
	grain := batchGrain(n)
	nc := par.NumChunks(n, grain)
	if nc <= 1 {
		m.Gradient(p, batch, stats, grad)
		return
	}
	spp := m.StatsPerPoint()
	rows, width := grad.Rows(), grad.Width()
	sparse := SparseGradient(m, batch, width)
	_, accumulates := m.(supportConfined)
	parts := make([]*Params, nc)
	pool.Run(n, grain, func(c, lo, hi int) {
		var g *Params
		if sparse {
			g = getScratch(&cleanScratch, rows, width)
		} else {
			g = getScratch(&denseScratch, rows, width)
			if accumulates {
				g.Zero()
			}
		}
		sub := Batch{Rows: batch.Rows[lo:hi], Labels: batch.Labels[lo:hi]}
		m.Gradient(p, sub, stats[lo*spp:hi*spp], g)
		parts[c] = g
	})
	for c, g := range parts {
		lo, hi := par.Bounds(c, n, grain)
		scale := float64(hi-lo) / float64(n)
		if !sparse {
			for r := range grad.W {
				vec.Axpy(grad.W[r], scale, g.W[r])
			}
			denseScratch.Put(g)
			continue
		}
		for i := lo; i < hi; i++ {
			for _, j := range batch.Rows[i].Indices {
				if int(j) >= width {
					continue
				}
				for r := range grad.W {
					grad.W[r][j] += scale * g.W[r][j]
					g.W[r][j] = 0
				}
			}
		}
		cleanScratch.Put(g)
	}
}
