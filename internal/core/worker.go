package core

import (
	"fmt"
	"math/rand"
	"sync"

	"columnsgd/internal/model"
	"columnsgd/internal/opt"
	"columnsgd/internal/par"
	"columnsgd/internal/partition"
	"columnsgd/internal/vec"
)

// partState is one column partition collocated on a worker: its data
// (worksets), its model slice, and its optimizer state. Under S-backup a
// worker holds S+1 of these.
type partState struct {
	index  int
	width  int
	store  *partition.Store
	params *model.Params
	opt    opt.Optimizer

	// Float32 twins, populated instead of params/opt when the worker
	// runs at f32 precision: the partition's parameters and optimizer
	// state live in float32 end to end.
	params32 *model.Params32
	opt32    opt.Optimizer32

	// Iteration-scoped scratch, reused across the hot loop: the
	// materialized mini-batch views and the gradient block.
	rowsBuf   []vec.Sparse
	rows32Buf []vec.Sparse32
	labelsBuf []float64
	grad      *model.Params
	grad32    *model.Params32

	// lbfgs holds the partition's L-BFGS history (Config.Solver
	// "lbfgs"); nil otherwise. Invalidated whenever the parameters are
	// replaced out-of-band (import, reset).
	lbfgs *lbfgsPart
}

// Worker is the worker-side implementation of Algorithm 3. It is exposed
// over the cluster transport via NewWorkerService and holds everything a
// ColumnSGD worker owns: column-partitioned data, the matching model
// partition(s), optimizer state, and the sampling index.
type Worker struct {
	mu sync.Mutex

	id      int
	mdl     model.Model
	parts   []*partState
	sampler *partition.Sampler
	seed    int64
	// prec is the worker's numeric width, PrecisionF64 or PrecisionF32.
	prec string

	// failNext injects transient task failures (Fig. 13(a)).
	failNext int

	// pool is the worker's deterministic compute pool (fixed chunking +
	// ordered reduction, see internal/par): results are bit-identical for
	// every pool size, so parallelism is purely a throughput knob.
	pool *par.Pool

	// scratch buffers reused across iterations.
	statsBuf []float64
	partBuf  []float64
	// float32 twins, used when prec is PrecisionF32, plus the narrowed
	// copy of the aggregated statistics received in update calls.
	statsBuf32 []float32
	partBuf32  []float32
	aggBuf32   []float32

	// solver-round scratch (local-update multi-step rounds and the
	// L-BFGS line search): own-statistics snapshots and the estimate
	// vector, reused across rounds.
	ownBuf0  []float64
	ownBuf   []float64
	estBuf   []float64
	own32Buf []float32
}

// NewWorker creates an empty worker; Init must be called before use.
func NewWorker() *Worker { return &Worker{id: -1} }

func (w *Worker) init(a *InitArgs) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(a.Partitions) == 0 || len(a.Partitions) != len(a.Widths) {
		return fmt.Errorf("core: worker %d: bad partition spec: %d partitions, %d widths",
			a.Worker, len(a.Partitions), len(a.Widths))
	}
	mdl, err := model.New(a.ModelName, a.ModelArg)
	if err != nil {
		return err
	}
	switch a.Precision {
	case "", PrecisionF64:
		w.prec = PrecisionF64
	case PrecisionF32:
		if _, ok := model.Kernel32Of(mdl); !ok {
			return fmt.Errorf("core: worker %d: model %s has no float32 kernels", a.Worker, mdl.Name())
		}
		w.prec = PrecisionF32
	default:
		return fmt.Errorf("core: worker %d: unknown precision %q", a.Worker, a.Precision)
	}
	w.id = a.Worker
	w.mdl = mdl
	w.seed = a.Seed
	w.sampler = nil
	if w.pool != nil {
		w.pool.Shutdown()
	}
	w.pool = par.New(a.Parallelism)
	w.parts = make([]*partState, len(a.Partitions))
	for i, p := range a.Partitions {
		ps := &partState{
			index:  p,
			width:  a.Widths[i],
			store:  partition.NewStore(),
			params: model.NewParams(mdl.ParamRows(), a.Widths[i]),
		}
		// Replica determinism: seed by partition index so every replica
		// of a partition initializes identically. Initialization always
		// runs in f64; f32 workers round that template once, so an f32
		// replica starts from the rounding of the exact values its f64
		// counterpart starts from (FM factor draws included).
		mdl.Init(ps.params, rand.New(rand.NewSource(a.Seed+int64(p)*7919)))
		if w.prec == PrecisionF32 {
			ps.params32 = model.NarrowParams(ps.params)
			ps.params = nil // the f32 block is authoritative
			o, err := opt.New32(a.Opt)
			if err != nil {
				return err
			}
			ps.opt32 = o
		} else {
			o, err := opt.New(a.Opt)
			if err != nil {
				return err
			}
			ps.opt = o
		}
		w.parts[i] = ps
	}
	return nil
}

func (w *Worker) findPart(index int) (*partState, error) {
	for _, p := range w.parts {
		if p.index == index {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: worker %d does not hold partition %d", w.id, index)
}

func (w *Worker) load(a *LoadArgs) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.parts == nil {
		return fmt.Errorf("core: worker not initialized")
	}
	ps, err := w.findPart(a.Partition)
	if err != nil {
		return err
	}
	if int(a.Workset.Data.Cols) != ps.width {
		return fmt.Errorf("core: worker %d partition %d: workset width %d, expected %d",
			w.id, a.Partition, a.Workset.Data.Cols, ps.width)
	}
	return ps.store.Put(a.Workset)
}

func (w *Worker) loadDone() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.parts) == 0 {
		return fmt.Errorf("core: worker not initialized")
	}
	meta := w.parts[0].store.Meta()
	// All partitions on this worker must agree on the block structure —
	// the sampler is shared.
	for _, p := range w.parts[1:] {
		other := p.store.Meta()
		if len(other) != len(meta) {
			return fmt.Errorf("core: worker %d: partitions disagree on block count", w.id)
		}
		for i := range meta {
			if other[i] != meta[i] {
				return fmt.Errorf("core: worker %d: partition %d block %d mismatch", w.id, p.index, i)
			}
		}
	}
	s, err := partition.NewSampler(meta)
	if err != nil {
		return fmt.Errorf("core: worker %d: %w", w.id, err)
	}
	w.sampler = s
	if w.prec == PrecisionF32 {
		// Build every workset's float32 value shadow now, under the
		// worker lock and before any compute fan-out: Row32's lazy build
		// is not safe to race, and paying the conversion at load keeps
		// the training hot path conversion-free.
		for _, p := range w.parts {
			for _, id := range p.store.Blocks() {
				if ws, ok := p.store.Get(id); ok {
					ws.Data.EnsureF32()
				}
			}
		}
	}
	return nil
}

// batchFor materializes the iteration's mini-batch for one partition:
// local column slices plus shared labels. refs come from the shared
// two-phase sampler. The batch views live in the partition's scratch
// buffers and are valid until its next batchFor call.
func batchFor(ps *partState, refs []partition.RowRef) (model.Batch, error) {
	if cap(ps.rowsBuf) < len(refs) {
		ps.rowsBuf = make([]vec.Sparse, len(refs))
		ps.labelsBuf = make([]float64, len(refs))
	}
	b := model.Batch{
		Rows:   ps.rowsBuf[:len(refs)],
		Labels: ps.labelsBuf[:len(refs)],
	}
	for i, ref := range refs {
		ws, ok := ps.store.Get(ref.BlockID)
		if !ok {
			return model.Batch{}, fmt.Errorf("core: partition %d missing block %d", ps.index, ref.BlockID)
		}
		b.Rows[i] = ws.Data.Row(ref.Offset)
		b.Labels[i] = ws.Labels[ref.Offset]
	}
	return b, nil
}

// refsFor materializes the iteration's row references under either access
// mode: two-phase mini-batch sampling, or sequential epoch access where
// the batch is block perm[iter mod #blocks] of a seed-shuffled order —
// identical on every worker either way.
func (w *Worker) refsFor(a *StatsArgs) []partition.RowRef {
	if !a.Epoch {
		return w.sampler.SampleBatch(a.Iter, a.BatchSize)
	}
	perm := w.sampler.SampleEpochBlocks(a.EpochSeed)
	blockID := perm[int(a.Iter%int64(len(perm))+int64(len(perm)))%len(perm)]
	rows := 0
	for _, b := range w.parts[0].store.Meta() {
		if b.ID == blockID {
			rows = b.Rows
			break
		}
	}
	refs := make([]partition.RowRef, rows)
	for i := range refs {
		refs[i] = partition.RowRef{BlockID: blockID, Offset: i}
	}
	return refs
}

func (w *Worker) maybeFail() error {
	if w.failNext > 0 {
		w.failNext--
		return fmt.Errorf("core: injected task failure on worker %d", w.id)
	}
	return nil
}

func (w *Worker) computeStats(a *StatsArgs) (*StatsReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeFail(); err != nil {
		return nil, err
	}
	if w.sampler == nil {
		return nil, fmt.Errorf("core: worker %d: load not finished", w.id)
	}
	refs := w.refsFor(a)
	if w.prec == PrecisionF32 {
		return w.computeStats32(refs)
	}
	spp := w.mdl.StatsPerPoint()
	if cap(w.statsBuf) < len(refs)*spp {
		w.statsBuf = make([]float64, len(refs)*spp)
	}
	sum := w.statsBuf[:len(refs)*spp]
	for i := range sum {
		sum[i] = 0
	}
	var nnz int64
	for _, ps := range w.parts {
		batch, err := batchFor(ps, refs)
		if err != nil {
			return nil, err
		}
		// Per-point statistics fill disjoint slots, so the parallel path
		// is bit-identical to the sequential kernel for every pool size.
		w.partBuf = model.ParallelStats(w.pool, w.mdl, ps.params, batch, w.partBuf)
		for i, v := range w.partBuf {
			sum[i] += v
		}
		nnz += batch.NNZ()
	}
	// Copy out: the reply must not alias the scratch buffer.
	out := append([]float64(nil), sum...)
	return &StatsReply{Stats: out, NNZ: nnz}, nil
}

func (w *Worker) update(a *UpdateArgs) (*UpdateReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.maybeFail(); err != nil {
		return nil, err
	}
	if w.sampler == nil {
		return nil, fmt.Errorf("core: worker %d: load not finished", w.id)
	}
	refs := w.refsFor(&StatsArgs{Iter: a.Iter, BatchSize: a.BatchSize, Epoch: a.Epoch, EpochSeed: a.EpochSeed})
	if w.prec == PrecisionF32 {
		return w.update32(a, refs)
	}
	var loss float64
	var nnz int64
	for pi, ps := range w.parts {
		batch, err := batchFor(ps, refs)
		if err != nil {
			return nil, err
		}
		if err := w.step(ps, batch, a.Stats); err != nil {
			return nil, err
		}
		nnz += batch.NNZ()
		if pi == 0 {
			loss = model.BatchLoss(w.mdl, batch.Labels, a.Stats)
		}
	}
	return &UpdateReply{Loss: loss, NNZ: nnz}, nil
}

// step runs one gradient → apply of partition ps over batch and leaves
// ps.grad all-zero, the state every step finds it in; it is the only
// writer of ps.grad. The gradient is the chunked, ordered reduction
// (bit-identical for every pool size, see model.ParallelGradient). On a
// sparse batch of a built-in model it lands only at the batch's columns,
// and the apply visits and drains just those (opt.ApplySupport), so the
// step is O(batch·nnz) whatever the width. Otherwise the apply is dense
// and the clear is full-width.
func (w *Worker) step(ps *partState, batch model.Batch, stats []float64) error {
	if ps.grad == nil || ps.grad.Rows() != w.mdl.ParamRows() || ps.grad.Width() != ps.width {
		ps.grad = model.NewParams(w.mdl.ParamRows(), ps.width)
	}
	model.AccumulateGradient(w.pool, w.mdl, ps.params, batch, stats, ps.grad)
	var err error
	if model.SparseGradient(w.mdl, batch, ps.width) {
		err = opt.ApplySupport(ps.opt, ps.params, ps.grad, batch.Rows)
	} else {
		err = ps.opt.Apply(ps.params, ps.grad)
		ps.grad.Zero()
	}
	if err != nil {
		ps.grad.Zero()
	}
	return err
}

func (w *Worker) evalStats(a *EvalArgs) (*EvalReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sampler == nil {
		return nil, fmt.Errorf("core: worker %d: load not finished", w.id)
	}
	ps, err := w.findPart(a.Partition)
	if err != nil {
		return nil, err
	}
	if w.prec == PrecisionF32 {
		return w.evalStats32(ps, a)
	}
	var out []float64
	var nnz int64
	var partStats []float64
	for _, id := range ps.store.Blocks() {
		if id < a.FromBlock || id >= a.ToBlock {
			continue
		}
		ws, _ := ps.store.Get(id)
		batch := model.Batch{Rows: make([]vec.Sparse, ws.Rows()), Labels: ws.Labels}
		for i := range batch.Rows {
			batch.Rows[i] = ws.Data.Row(i)
		}
		partStats = model.ParallelStats(w.pool, w.mdl, ps.params, batch, partStats[:0])
		out = append(out, partStats...)
		nnz += batch.NNZ()
	}
	return &EvalReply{Stats: out, NNZ: nnz}, nil
}

func (w *Worker) evalLoss(a *EvalLossArgs) (*EvalLossReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.parts) == 0 {
		return nil, fmt.Errorf("core: worker not initialized")
	}
	ps := w.parts[0]
	spp := w.mdl.StatsPerPoint()
	var lossSum float64
	var count int
	pos := 0
	for _, id := range ps.store.Blocks() {
		if id < a.FromBlock || id >= a.ToBlock {
			continue
		}
		ws, _ := ps.store.Get(id)
		for i := 0; i < ws.Rows(); i++ {
			if (pos+1)*spp > len(a.Stats) {
				return nil, fmt.Errorf("core: eval stats too short: need %d, have %d", (pos+1)*spp, len(a.Stats))
			}
			lossSum += w.mdl.PointLoss(ws.Labels[i], a.Stats[pos*spp:(pos+1)*spp])
			pos++
			count++
		}
	}
	return &EvalLossReply{LossSum: lossSum, Count: count}, nil
}

func (w *Worker) evalAccuracy(a *EvalAccuracyArgs) (*EvalAccuracyReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.parts) == 0 {
		return nil, fmt.Errorf("core: worker not initialized")
	}
	ps := w.parts[0]
	spp := w.mdl.StatsPerPoint()
	reply := &EvalAccuracyReply{}
	pos := 0
	for _, id := range ps.store.Blocks() {
		if id < a.FromBlock || id >= a.ToBlock {
			continue
		}
		ws, _ := ps.store.Get(id)
		for i := 0; i < ws.Rows(); i++ {
			if (pos+1)*spp > len(a.Stats) {
				return nil, fmt.Errorf("core: accuracy stats too short: need %d, have %d", (pos+1)*spp, len(a.Stats))
			}
			if w.mdl.Predict(a.Stats[pos*spp:(pos+1)*spp]) == ws.Labels[i] {
				reply.Correct++
			}
			pos++
			reply.Count++
		}
	}
	return reply, nil
}

func (w *Worker) setParams(a *SetParamsArgs) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	ps, err := w.findPart(a.Partition)
	if err != nil {
		return err
	}
	if len(a.W) != w.mdl.ParamRows() {
		return fmt.Errorf("core: setParams: %d rows, want %d", len(a.W), w.mdl.ParamRows())
	}
	for r := range a.W {
		if len(a.W[r]) != ps.width {
			return fmt.Errorf("core: setParams: row %d width %d, want %d", r, len(a.W[r]), ps.width)
		}
		if w.prec == PrecisionF32 {
			// Imports round once to the worker's width, like init does.
			ps.params32.W[r] = vec.Narrow(ps.params32.W[r], a.W[r])
		} else {
			copy(ps.params.W[r], a.W[r])
		}
	}
	// Imported parameters invalidate accumulated optimizer state — and
	// any L-BFGS curvature history, which described the old iterate.
	if w.prec == PrecisionF32 {
		ps.opt32.Reset()
	} else {
		ps.opt.Reset()
	}
	ps.lbfgs = nil
	return nil
}

func (w *Worker) getParams(a *ParamsArgs) (*ParamsReply, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ps, err := w.findPart(a.Partition)
	if err != nil {
		return nil, err
	}
	// Deep copy; the reply is serialized anyway on real transports, but
	// the in-process path must not alias live state either. Exports are
	// always f64: an f32 partition widens exactly.
	if w.prec == PrecisionF32 {
		return &ParamsReply{W: ps.params32.Widen().W}, nil
	}
	cp := ps.params.Clone()
	return &ParamsReply{W: cp.W}, nil
}

func (w *Worker) resetPartition(a *ResetPartitionArgs) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	ps, err := w.findPart(a.Partition)
	if err != nil {
		return err
	}
	ps.lbfgs = nil
	mdl := w.mdl
	if w.prec == PrecisionF32 {
		// Reinitialize through the f64 template and round once, exactly
		// as init does, so a recovered f32 partition matches a fresh one.
		tmpl := model.NewParams(mdl.ParamRows(), ps.width)
		mdl.Init(tmpl, rand.New(rand.NewSource(w.seed+int64(a.Partition)*7919)))
		ps.params32 = model.NarrowParams(tmpl)
		ps.opt32.Reset()
		return nil
	}
	mdl.Init(ps.params, rand.New(rand.NewSource(w.seed+int64(a.Partition)*7919)))
	ps.opt.Reset()
	return nil
}

func (w *Worker) armFailures(a *FailNextArgs) {
	w.mu.Lock()
	w.failNext = a.Calls
	w.mu.Unlock()
}

// Shutdown releases the worker's compute pool. Calls arriving afterwards
// still succeed — the pool's inline fallback runs the identical chunked
// arithmetic — so shutdown can race in-flight tasks safely.
func (w *Worker) Shutdown() {
	w.mu.Lock()
	pool := w.pool
	w.mu.Unlock()
	pool.Shutdown()
}
