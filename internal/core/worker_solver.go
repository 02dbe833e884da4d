package core

// Worker-side solver methods: the local-update multi-step round
// (Config.Solver "local", K ≥ 2) and the L-BFGS gradient/direction/
// line-search/apply round (Config.Solver "lbfgs"). K = 1 local rounds
// never reach these methods — the engine keeps the classic UpdateArgs
// path, which is what makes "local" K=1 bit-identical to "sgd" by
// construction.

import (
	"fmt"

	"columnsgd/internal/model"
	"columnsgd/internal/partition"
	"columnsgd/internal/vec"
)

// lbfgsPart is one partition's L-BFGS worker state: the curvature-pair
// history restricted to this partition's columns, the previous round's
// mean gradient, the pending step awaiting its y-twin, and the
// materialized search direction. Columns are disjoint across partitions,
// so per-partition dot products sum exactly to the full-model values.
type lbfgsPart struct {
	// s and y are the committed curvature pairs, oldest..newest.
	s, y []*model.Params
	// gPrev is the last committed mean gradient (y = g − gPrev).
	gPrev *model.Params
	// sPend is α·d from the last apply, waiting for the next gradient
	// round to form its (s, y) pair.
	sPend *model.Params
	// dir is the materialized search direction of the current round.
	dir *model.Params
	// grad and blockGrad are round-scoped gradient scratch.
	grad, blockGrad *model.Params
}

// growF64 sizes a scratch buffer without shrinking its capacity.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// addScaled is dst += alpha·src over matching parameter blocks.
func addScaled(dst, src *model.Params, alpha float64) error {
	if len(dst.W) != len(src.W) {
		return fmt.Errorf("core: params row mismatch %d vs %d", len(dst.W), len(src.W))
	}
	for r := range dst.W {
		if len(dst.W[r]) != len(src.W[r]) {
			return fmt.Errorf("core: params width mismatch %d vs %d", len(dst.W[r]), len(src.W[r]))
		}
		dw, sw := dst.W[r], src.W[r]
		for i := range dw {
			dw[i] += alpha * sw[i]
		}
	}
	return nil
}

// dotParams is the Frobenius inner product of two parameter blocks.
func dotParams(a, b *model.Params) float64 {
	var sum float64
	for r := range a.W {
		aw, bw := a.W[r], b.W[r]
		for i := range aw {
			sum += aw[i] * bw[i]
		}
	}
	return sum
}

// solverUpdate runs the local-update round (CoCoA-style): K optimizer
// steps on the iteration's anchor batch, where step k's statistics
// estimate refreshes only this worker's own contribution —
// est_k = agg − own_0 + own_k — and peers stay frozen at the exchanged
// snapshot. The reply carries the accumulated local delta own_K − own_0.
func (w *Worker) solverUpdate(a *SolverUpdateArgs) (*SolverUpdateReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeFail(); err != nil {
		return nil, err
	}
	if w.sampler == nil {
		return nil, fmt.Errorf("core: worker %d: load not finished", w.id)
	}
	if a.LocalSteps < 2 {
		return nil, fmt.Errorf("core: worker %d: solver update needs LocalSteps ≥ 2 (K=1 rounds use the classic update)", w.id)
	}
	refs := w.refsFor(&StatsArgs{Iter: a.Iter, BatchSize: a.BatchSize, Epoch: a.Epoch, EpochSeed: a.EpochSeed})
	need := len(refs) * w.mdl.StatsPerPoint()
	if len(a.Stats) != need {
		return nil, fmt.Errorf("core: worker %d: solver update stats length %d, want %d", w.id, len(a.Stats), need)
	}
	if w.prec == PrecisionF32 {
		return w.solverUpdate32(a, refs, need)
	}

	w.ownBuf0 = growF64(w.ownBuf0, need)
	w.ownBuf = growF64(w.ownBuf, need)
	w.estBuf = growF64(w.estBuf, need)
	own0, own, est := w.ownBuf0, w.ownBuf, w.estBuf

	// Materialize each partition's batch views once; they stay valid for
	// the whole call (the stores are immutable during training).
	batches := make([]model.Batch, len(w.parts))
	for i, ps := range w.parts {
		b, err := batchFor(ps, refs)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	// ownStats recomputes this worker's summed partial statistics over
	// the anchor batch, in the exact summation order computeStats uses
	// (so own_0 equals the contribution the master already aggregated).
	ownStats := func(dst []float64) int64 {
		for i := range dst {
			dst[i] = 0
		}
		var nnz int64
		for i, ps := range w.parts {
			w.partBuf = model.ParallelStats(w.pool, w.mdl, ps.params, batches[i], w.partBuf)
			for j, v := range w.partBuf {
				dst[j] += v
			}
			nnz += batches[i].NNZ()
		}
		return nnz
	}

	nnz := ownStats(own0)
	// est_0 = agg − own_0 + own_0: the exchanged aggregate itself.
	copy(est, a.Stats)
	var loss float64
	for k := 0; k < a.LocalSteps; k++ {
		for pi, ps := range w.parts {
			if k == 0 && pi == 0 {
				// The recorded loss is the pre-update anchor-batch loss
				// against the exchanged aggregate — the same quantity the
				// classic round reports.
				loss = model.BatchLoss(w.mdl, batches[pi].Labels, a.Stats)
			}
			if err := w.step(ps, batches[pi], est); err != nil {
				return nil, err
			}
			nnz += batches[pi].NNZ()
		}
		nnz += ownStats(own)
		for i := range est {
			est[i] = a.Stats[i] - own0[i] + own[i]
		}
	}
	delta := make([]float64, need)
	for i := range delta {
		delta[i] = own[i] - own0[i]
	}
	return &SolverUpdateReply{Loss: loss, NNZ: nnz, Delta: delta}, nil
}

// solverUpdate32 is solverUpdate's float32 twin: own statistics are
// computed at f32 and widened exactly (like computeStats32), the f64
// estimate is rounded once into scratch per local step, and every
// gradient and optimizer update runs in float32.
func (w *Worker) solverUpdate32(a *SolverUpdateArgs, refs []partition.RowRef, need int) (*SolverUpdateReply, error) {
	w.ownBuf0 = growF64(w.ownBuf0, need)
	w.ownBuf = growF64(w.ownBuf, need)
	w.estBuf = growF64(w.estBuf, need)
	own0, own, est := w.ownBuf0, w.ownBuf, w.estBuf

	batches := make([]model.Batch32, len(w.parts))
	for i, ps := range w.parts {
		b, err := batchFor32(ps, refs)
		if err != nil {
			return nil, err
		}
		batches[i] = b
	}
	ownStats := func(dst []float64) int64 {
		if cap(w.own32Buf) < need {
			w.own32Buf = make([]float32, need)
		}
		sum := w.own32Buf[:need]
		for i := range sum {
			sum[i] = 0
		}
		var nnz int64
		for i, ps := range w.parts {
			w.partBuf32 = model.ParallelStats32(w.pool, w.mdl, ps.params32, batches[i], w.partBuf32)
			for j, v := range w.partBuf32 {
				sum[j] += v
			}
			nnz += batches[i].NNZ()
		}
		for j, v := range sum {
			dst[j] = float64(v)
		}
		return nnz
	}

	nnz := ownStats(own0)
	copy(est, a.Stats)
	var loss float64
	for k := 0; k < a.LocalSteps; k++ {
		w.aggBuf32 = vec.Narrow(w.aggBuf32, est)
		for pi, ps := range w.parts {
			if k == 0 && pi == 0 {
				loss = model.BatchLoss(w.mdl, batches[pi].Labels, a.Stats)
			}
			if ps.grad32 == nil || ps.grad32.Rows() != w.mdl.ParamRows() || ps.grad32.Width() != ps.width {
				ps.grad32 = model.NewParams32(w.mdl.ParamRows(), ps.width)
			}
			model.ParallelGradient32(w.pool, w.mdl, ps.params32, batches[pi], w.aggBuf32, ps.grad32)
			if err := ps.opt32.Apply(ps.params32, ps.grad32); err != nil {
				return nil, err
			}
			nnz += batches[pi].NNZ()
		}
		nnz += ownStats(own)
		for i := range est {
			est[i] = a.Stats[i] - own0[i] + own[i]
		}
	}
	delta := make([]float64, need)
	for i := range delta {
		delta[i] = own[i] - own0[i]
	}
	return &SolverUpdateReply{Loss: loss, NNZ: nnz, Delta: delta}, nil
}

// fullBatch materializes one whole block as a batch (fresh views, like
// evalStats).
func fullBatch(ws *partition.Workset) model.Batch {
	b := model.Batch{Rows: make([]vec.Sparse, ws.Rows()), Labels: ws.Labels}
	for i := range b.Rows {
		b.Rows[i] = ws.Data.Row(i)
	}
	return b
}

// solverGrad consumes the aggregated full-data margins: it computes the
// partition's mean full-data gradient, commits the pending (s, y) pair,
// and returns the partial Gram matrix over the basis
// [s_1..s_p, y_1..y_p, g]. L-BFGS runs f64-only (rejected at config
// time for f32 workers).
func (w *Worker) solverGrad(a *SolverGradArgs) (*SolverGradReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeFail(); err != nil {
		return nil, err
	}
	if w.sampler == nil {
		return nil, fmt.Errorf("core: worker %d: load not finished", w.id)
	}
	if w.prec == PrecisionF32 {
		return nil, fmt.Errorf("core: worker %d: L-BFGS rounds need f64 precision", w.id)
	}
	spp := w.mdl.StatsPerPoint()
	var nnz int64
	for _, ps := range w.parts {
		lb := ps.lbfgs
		if lb == nil {
			lb = &lbfgsPart{}
			ps.lbfgs = lb
		}
		if lb.grad == nil || lb.grad.Rows() != w.mdl.ParamRows() || lb.grad.Width() != ps.width {
			lb.grad = model.NewParams(w.mdl.ParamRows(), ps.width)
		}
		if lb.blockGrad == nil || lb.blockGrad.Rows() != w.mdl.ParamRows() || lb.blockGrad.Width() != ps.width {
			lb.blockGrad = model.NewParams(w.mdl.ParamRows(), ps.width)
		}
		// Mean gradient over the whole shard: per-block mean gradients
		// weighted by block size, normalized by the total row count. The
		// blocks walk in sorted order, matching the margin layout the
		// evalStats gather produced.
		lb.grad.Zero()
		pos := 0
		for _, id := range ps.store.Blocks() {
			ws, _ := ps.store.Get(id)
			n := ws.Rows()
			if (pos+n)*spp > len(a.Stats) {
				return nil, fmt.Errorf("core: worker %d: margin vector too short: need %d, have %d", w.id, (pos+n)*spp, len(a.Stats))
			}
			batch := fullBatch(ws)
			model.ParallelGradient(w.pool, w.mdl, ps.params, batch, a.Stats[pos*spp:(pos+n)*spp], lb.blockGrad)
			if err := addScaled(lb.grad, lb.blockGrad, float64(n)); err != nil {
				return nil, err
			}
			pos += n
			nnz += batch.NNZ()
		}
		if pos == 0 {
			return nil, fmt.Errorf("core: worker %d: partition %d holds no rows", w.id, ps.index)
		}
		if pos*spp != len(a.Stats) {
			return nil, fmt.Errorf("core: worker %d: margin vector length %d, want %d", w.id, len(a.Stats), pos*spp)
		}
		lb.grad.Scale(1 / float64(pos))
		// Commit the pending pair: y = g − g_prev partners the step the
		// last apply recorded. A zero-step round leaves sPend nil, so no
		// degenerate pair enters the history.
		if lb.sPend != nil && lb.gPrev != nil {
			y := lb.grad.Clone()
			if err := addScaled(y, lb.gPrev, -1); err != nil {
				return nil, err
			}
			lb.s = append(lb.s, lb.sPend)
			lb.y = append(lb.y, y)
			for len(lb.s) > a.Memory {
				lb.s = lb.s[1:]
				lb.y = lb.y[1:]
			}
		}
		lb.sPend = nil
		lb.gPrev = lb.grad.Clone()
		if len(lb.s) != a.Pairs {
			return nil, fmt.Errorf("core: worker %d partition %d: L-BFGS history desync: %d pairs, master expects %d",
				w.id, ps.index, len(lb.s), a.Pairs)
		}
	}
	// Partial Gram over the shared basis ordering. Partition columns are
	// disjoint, so summing per-partition Grams (here, and across workers
	// at the master) yields the exact full-model inner products.
	d := 2*a.Pairs + 1
	gram := make([]float64, d*d)
	for _, ps := range w.parts {
		lb := ps.lbfgs
		basis := make([]*model.Params, 0, d)
		basis = append(basis, lb.s...)
		basis = append(basis, lb.y...)
		basis = append(basis, lb.grad)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				v := dotParams(basis[i], basis[j])
				gram[i*d+j] += v
				if j != i {
					gram[j*d+i] += v
				}
			}
		}
	}
	return &SolverGradReply{Pairs: a.Pairs, NNZ: nnz, Gram: gram}, nil
}

// solverDirection materializes the search direction d = Σ θ_i·b_i on
// every partition and returns the partition's full-data direction
// margins (statistics of d over every instance, same layout as the
// margin gather).
func (w *Worker) solverDirection(a *SolverDirArgs) (*SolverDirReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeFail(); err != nil {
		return nil, err
	}
	if w.sampler == nil {
		return nil, fmt.Errorf("core: worker %d: load not finished", w.id)
	}
	var out []float64
	var nnz int64
	var partStats []float64
	spp := w.mdl.StatsPerPoint()
	for _, ps := range w.parts {
		lb := ps.lbfgs
		if lb == nil || lb.grad == nil {
			return nil, fmt.Errorf("core: worker %d: direction request before a gradient round", w.id)
		}
		d := 2*len(lb.s) + 1
		if len(a.Coeffs) != d {
			return nil, fmt.Errorf("core: worker %d: %d direction coefficients for basis size %d", w.id, len(a.Coeffs), d)
		}
		if lb.dir == nil || lb.dir.Rows() != w.mdl.ParamRows() || lb.dir.Width() != ps.width {
			lb.dir = model.NewParams(w.mdl.ParamRows(), ps.width)
		}
		lb.dir.Zero()
		basis := make([]*model.Params, 0, d)
		basis = append(basis, lb.s...)
		basis = append(basis, lb.y...)
		basis = append(basis, lb.grad)
		for i, b := range basis {
			if err := addScaled(lb.dir, b, a.Coeffs[i]); err != nil {
				return nil, err
			}
		}
		pos := 0
		for _, id := range ps.store.Blocks() {
			ws, _ := ps.store.Get(id)
			batch := fullBatch(ws)
			partStats = model.ParallelStats(w.pool, w.mdl, lb.dir, batch, partStats[:0])
			if out == nil {
				out = make([]float64, 0, (pos+ws.Rows())*spp)
			}
			if len(out) < (pos+ws.Rows())*spp {
				out = append(out, make([]float64, (pos+ws.Rows())*spp-len(out))...)
			}
			for i, v := range partStats {
				out[pos*spp+i] += v
			}
			pos += ws.Rows()
			nnz += batch.NNZ()
		}
	}
	return &SolverDirReply{NNZ: nnz, Margins: out}, nil
}

// solverLine evaluates the mean full-data loss at every probed step in
// one pass: margin(w + α·d) = Base + α·Dir, exact for models whose
// statistics are linear in the parameters (config validation rejects the
// others). Labels are replicated, so any one worker can price the whole
// ladder.
func (w *Worker) solverLine(a *SolverLineArgs) (*SolverLineReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeFail(); err != nil {
		return nil, err
	}
	if len(w.parts) == 0 {
		return nil, fmt.Errorf("core: worker not initialized")
	}
	if len(a.Base) != len(a.Dir) {
		return nil, fmt.Errorf("core: worker %d: base/direction margin length mismatch %d vs %d", w.id, len(a.Base), len(a.Dir))
	}
	if len(a.Alphas) == 0 {
		return nil, fmt.Errorf("core: worker %d: empty line-search ladder", w.id)
	}
	ps := w.parts[0]
	spp := w.mdl.StatsPerPoint()
	w.estBuf = growF64(w.estBuf, len(a.Base))
	est := w.estBuf
	losses := make([]float64, len(a.Alphas))
	count := 0
	for ai, alpha := range a.Alphas {
		for i := range est {
			est[i] = a.Base[i] + alpha*a.Dir[i]
		}
		var lossSum float64
		pos := 0
		for _, id := range ps.store.Blocks() {
			ws, _ := ps.store.Get(id)
			for i := 0; i < ws.Rows(); i++ {
				if (pos+1)*spp > len(est) {
					return nil, fmt.Errorf("core: worker %d: line-search margins too short: need %d, have %d", w.id, (pos+1)*spp, len(est))
				}
				lossSum += w.mdl.PointLoss(ws.Labels[i], est[pos*spp:(pos+1)*spp])
				pos++
			}
		}
		if pos == 0 {
			return nil, fmt.Errorf("core: worker %d: line search covered no points", w.id)
		}
		losses[ai] = lossSum / float64(pos)
		count = pos
	}
	return &SolverLineReply{Count: count, Losses: losses}, nil
}

// solverApply commits the chosen step on every partition: w += α·d, and
// records α·d as the pending s-vector for the next gradient round's
// curvature pair. α = 0 (every probe rejected) moves nothing and clears
// the pending step.
func (w *Worker) solverApply(a *SolverApplyArgs) (*UpdateReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeFail(); err != nil {
		return nil, err
	}
	var nnz int64
	for _, ps := range w.parts {
		lb := ps.lbfgs
		if lb == nil || lb.dir == nil {
			return nil, fmt.Errorf("core: worker %d: apply request before a direction round", w.id)
		}
		if a.Alpha == 0 {
			lb.sPend = nil
			continue
		}
		if err := addScaled(ps.params, lb.dir, a.Alpha); err != nil {
			return nil, err
		}
		sp := lb.dir.Clone()
		sp.Scale(a.Alpha)
		lb.sPend = sp
		nnz += ps.params.NNZ()
	}
	return &UpdateReply{NNZ: nnz}, nil
}
