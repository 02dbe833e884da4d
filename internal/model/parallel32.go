package model

import (
	"fmt"
	"sync"

	"columnsgd/internal/par"
)

// kernel32For asserts the model's float32 kernels. Callers of the
// parallel f32 entry points have already validated Kernel32 support when
// precision was configured, so a miss here is a programming error.
func kernel32For(m Model) Kernel32 {
	k, ok := m.(Kernel32)
	if !ok {
		panic(fmt.Sprintf("model: %s has no float32 kernels", m.Name()))
	}
	return k
}

// ParallelStats32 is the float32 twin of ParallelStats: it fans the same
// fixed row chunks (batchGrain is shared, a pure function of the batch
// size) across pool and lets each chunk's statistics land in disjoint
// output slots, so the result is bit-identical to a sequential
// PartialStats32 call for every pool size.
func ParallelStats32(pool *par.Pool, m Model, p *Params32, batch Batch32, dst []float32) []float32 {
	k := kernel32For(m)
	n := batch.Len()
	spp := m.StatsPerPoint()
	need := n * spp
	grain := batchGrain(n)
	if pool.Procs() == 1 || par.NumChunks(n, grain) <= 1 {
		return k.PartialStats32(p, batch, dst)
	}
	if cap(dst) < need {
		dst = make([]float32, need)
	}
	dst = dst[:need]
	pool.Run(n, grain, func(c, lo, hi int) {
		sub := Batch32{Rows: batch.Rows[lo:hi], Labels: batch.Labels[lo:hi]}
		out := k.PartialStats32(p, sub, dst[lo*spp:lo*spp:hi*spp])
		if len(out) != (hi-lo)*spp {
			panic(fmt.Sprintf("model: %s.PartialStats32 returned %d stats for a %d-row chunk (want %d)",
				m.Name(), len(out), hi-lo, (hi-lo)*spp))
		}
		if &out[0] != &dst[lo*spp] {
			copy(dst[lo*spp:hi*spp], out)
		}
	})
	return dst
}

// gradScratch32 pools per-chunk float32 gradient blocks, mirroring
// gradScratch.
var gradScratch32 = sync.Pool{New: func() interface{} { return (*Params32)(nil) }}

func getGradScratch32(rows, width int) *Params32 {
	if g, _ := gradScratch32.Get().(*Params32); g != nil && g.Rows() == rows && g.Width() == width {
		return g
	}
	return NewParams32(rows, width)
}

func putGradScratch32(g *Params32) { gradScratch32.Put(g) }

// ParallelGradient32 is the float32 twin of ParallelGradient: per-chunk
// mean gradients into pooled scratch, combined in ascending chunk order
// rescaled by chunkRows/batchRows. Chunk boundaries and reduction order
// are fixed, so the result is bit-identical for every pool size,
// including nil and shut-down pools.
//
// The merge is always sparse-aware (the f64 path gates it on density,
// see AccumulateGradient): a chunk's
// gradient only touches the column indices of that chunk's rows, so the
// combine walks those indices instead of the full partition width —
// O(batch·nnz) instead of O(chunks·width), which is the difference
// between the merge dominating the step and it disappearing when the
// width is large and batches are sparse. Each visited slot is re-zeroed
// after it is drained, so scratch blocks return to the pool clean and
// the per-chunk full-width memclr goes away too (Gradient32 accumulates
// into zeroed scratch by contract). Every slot still receives its chunk
// contributions in ascending chunk order, so the result is bit-for-bit
// the dense reduction's.
func ParallelGradient32(pool *par.Pool, m Model, p *Params32, batch Batch32, stats []float32, grad *Params32) {
	k := kernel32For(m)
	n := batch.Len()
	grain := batchGrain(n)
	nc := par.NumChunks(n, grain)
	grad.Zero()
	if nc <= 1 {
		k.Gradient32(p, batch, stats, grad)
		return
	}
	spp := m.StatsPerPoint()
	parts := make([]*Params32, nc)
	pool.Run(n, grain, func(c, lo, hi int) {
		g := getGradScratch32(grad.Rows(), grad.Width())
		sub := Batch32{Rows: batch.Rows[lo:hi], Labels: batch.Labels[lo:hi]}
		k.Gradient32(p, sub, stats[lo*spp:hi*spp], g)
		parts[c] = g
	})
	width := grad.Width()
	for c, g := range parts {
		lo, hi := par.Bounds(c, n, grain)
		scale := float32(hi-lo) / float32(n)
		if len(grad.W) == 1 {
			// Single parameter row (LR/SVM/least squares): hoist the
			// slice loads out of the scatter loop.
			gw, cw := grad.W[0], g.W[0]
			for i := lo; i < hi; i++ {
				for _, j := range batch.Rows[i].Indices {
					if int(j) >= width {
						continue
					}
					gw[j] += scale * cw[j]
					cw[j] = 0
				}
			}
		} else {
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
		}
		putGradScratch32(g)
	}
}
