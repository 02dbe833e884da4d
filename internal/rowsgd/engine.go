package rowsgd

import (
	"fmt"
	"math/rand"
	"time"

	"columnsgd/internal/cluster"
	"columnsgd/internal/costmodel"
	"columnsgd/internal/dataset"
	"columnsgd/internal/driver"
	"columnsgd/internal/membership"
	"columnsgd/internal/metrics"
	"columnsgd/internal/model"
	"columnsgd/internal/opt"
	"columnsgd/internal/partition"
	"columnsgd/internal/simnet"
	"columnsgd/internal/vec"
	"columnsgd/internal/wire"
)

// System selects which RowSGD baseline the engine emulates.
type System string

// The four baselines of the paper's evaluation (§V-A).
const (
	MLlib     System = "MLlib"
	MLlibStar System = "MLlib*"
	Petuum    System = "Petuum"
	MXNet     System = "MXNet"
)

// Config configures a RowSGD training run.
type Config struct {
	// System picks the baseline architecture.
	System System
	// Workers is K. Parameter-server systems run K servers collocated
	// with the K workers (the paper sets #servers = #workers).
	Workers int
	// ModelName/ModelArg select the model.
	ModelName string
	ModelArg  int
	// Opt configures the optimizer (applied at the master/servers; for
	// MLlib* it runs on each worker replica).
	Opt opt.Config
	// BatchSize is the global batch B; each worker processes B/K points.
	BatchSize int
	// Solver selects the update rule: "" or "sgd" runs each system's
	// classic path; "local" runs K = LocalSteps local SGD steps per
	// exchange on every system (K = 1 is exactly the classic path, and
	// for MLlib* — whose classic path already is local-step averaging —
	// "local" simply aliases LocalSteps onto the averaging rounds);
	// "lbfgs" runs dense master-side L-BFGS with a backtracking line
	// search (MLlib/Petuum/MXNet only). Solvers other than "sgd" are
	// BSP-only: they reject Staleness and Membership.
	Solver string
	// LocalSteps is the number of local SGD steps per averaging round.
	// MLlib* always consumes it (its classic path is model averaging;
	// default 4); the other systems consume it under Solver "local"
	// (same default 4, shared with the ColumnSGD engine's knob).
	LocalSteps int
	// LBFGSMemory is the L-BFGS history length m (Solver "lbfgs" only;
	// default 8, max 32).
	LBFGSMemory int
	// ChunkRows sizes the loading chunks (default 512).
	ChunkRows int
	// Seed drives sampling and initialization.
	Seed int64
	// Parallelism sizes each worker's deterministic compute pool
	// (0 = GOMAXPROCS); purely a throughput knob, see internal/par.
	Parallelism int
	// Net prices communication and compute.
	Net simnet.Model
	// EvalEvery computes the full training loss every n iterations.
	EvalEvery int
	// Repartition adds a global shuffle during loading
	// (MLlib-Repartition in Fig. 7).
	Repartition bool
	// Staleness > 0 switches Run from BSP to bounded-staleness (SSP)
	// execution (the asynchronous approach §VI of the paper discusses):
	// each worker loops at its own pace, at most Staleness iterations
	// ahead of the slowest, computing against a model version up to
	// Staleness rounds old — no synchronization barrier, at the price
	// of statistical efficiency. Applies to all four baselines.
	// EvalEvery is ignored under SSP (a mid-run full evaluation would
	// re-serialize the asynchronous schedule); the mini-batch loss is
	// recorded each iteration instead.
	Staleness int
	// StalenessSeed selects the deterministic staleness schedule (see
	// internal/ssp): 0 is the max-slack schedule (every read Staleness
	// rounds old), a nonzero seed draws per-(worker, iteration) jitter.
	// Runs with the same seed are bit-identical (schedule replay).
	StalenessSeed int64
	// Codec names the statistics wire codec for NewLocalEngine's
	// in-process transport: "wire", "wire-f32", "wire-f16".
	// Empty means the default (compact, lossless).
	Codec string
	// Precision selects the workers' numeric width: "" or "f64" runs the
	// float64 kernels, "f32" the float32 twins. Master-side aggregation
	// (gradient averaging, the central model, MLlib* averaging) stays
	// float64 either way; gradients cross the wire widened exactly.
	Precision string
	// Membership is an elastic-membership schedule ("leave@3:1,join@6:4",
	// see internal/membership): events apply at round barriers, with slot
	// migrations re-shipping the moved shard (and for MLlib* the replica
	// plus optimizer state). Requires NewElasticEngine.
	Membership string
}

func (c *Config) normalize() error {
	switch c.System {
	case MLlib, MLlibStar, Petuum, MXNet:
	case "":
		c.System = MLlib
	default:
		return fmt.Errorf("rowsgd: unknown system %q", c.System)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("rowsgd: config needs positive Workers")
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("rowsgd: config needs positive BatchSize")
	}
	if c.BatchSize < c.Workers {
		return fmt.Errorf("rowsgd: batch size %d smaller than worker count %d", c.BatchSize, c.Workers)
	}
	if c.ModelName == "" {
		c.ModelName = "lr"
	}
	// The solver knobs share validation with the ColumnSGD engine.
	// LocalSteps only flows through the shared bounds check under Solver
	// "local" — with the classic solver it stays a plain MLlib* knob
	// (any positive step count), preserving the legacy default below.
	sc := opt.SolverConfig{Name: c.Solver, LBFGSMemory: c.LBFGSMemory}
	if sc.Name == opt.SolverLocal {
		sc.LocalSteps = c.LocalSteps
	}
	sc, err := sc.Normalized()
	if err != nil {
		return fmt.Errorf("rowsgd: %w", err)
	}
	c.Solver = sc.Name
	c.LBFGSMemory = sc.LBFGSMemory
	if c.Solver == opt.SolverLocal {
		c.LocalSteps = sc.LocalSteps
	}
	if c.LocalSteps <= 0 {
		c.LocalSteps = 4
	}
	if c.Solver != opt.SolverSGD {
		if c.Staleness > 0 {
			return fmt.Errorf("rowsgd: Solver %q is BSP-only (Staleness must be 0)", c.Solver)
		}
		if c.Membership != "" {
			return fmt.Errorf("rowsgd: Solver %q does not compose with elastic membership", c.Solver)
		}
	}
	if c.Solver == opt.SolverLBFGS {
		if c.System == MLlibStar {
			return fmt.Errorf("rowsgd: Solver lbfgs needs a central model; MLlib* holds only replicas")
		}
		if c.Precision == "f32" {
			return fmt.Errorf("rowsgd: Solver lbfgs runs the float64 path only")
		}
		if c.Opt.L1 > 0 || c.Opt.L2 > 0 {
			return fmt.Errorf("rowsgd: Solver lbfgs assumes a smooth unregularized objective (L1/L2 must be 0)")
		}
		switch c.Opt.Algo {
		case "", "sgd":
		default:
			return fmt.Errorf("rowsgd: Solver lbfgs replaces the optimizer; Opt.Algo %q is meaningless here", c.Opt.Algo)
		}
	}
	if c.Solver == opt.SolverLocal && c.LocalSteps > 1 && c.Precision == "f32" && c.System != MLlibStar {
		return fmt.Errorf("rowsgd: Solver local with K > 1 runs the float64 path on %s (MLlib* local averaging supports f32)", c.System)
	}
	if c.ChunkRows <= 0 {
		c.ChunkRows = 512
	}
	if c.Staleness < 0 {
		return fmt.Errorf("rowsgd: Staleness must be ≥ 0")
	}
	switch c.Precision {
	case "", "f64", "f32":
	default:
		return fmt.Errorf("rowsgd: unknown precision %q (want \"f64\" or \"f32\")", c.Precision)
	}
	if c.Net.Name == "" {
		c.Net = simnet.Cluster1().WithWorkers(c.Workers)
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	// Parameter-server runtimes skip the per-iteration task launch.
	if c.System == Petuum || c.System == MXNet {
		c.Net = c.Net.WithScheduling(simnet.PSOverhead)
	}
	if c.Membership != "" {
		sched, err := membership.Parse(c.Membership)
		if err != nil {
			return err
		}
		if err := sched.Validate(c.Workers); err != nil {
			return err
		}
	}
	return nil
}

// links returns the parallel-link count of the system's bottleneck: the
// single master link for MLlib, K server/ring links otherwise.
func (c *Config) links() int {
	if c.System == MLlib {
		return 1
	}
	return c.Workers
}

// Engine is a RowSGD master. For MLlib/Petuum/MXNet it owns the global
// model (conceptually sharded over servers for the PS systems); for
// MLlib* the workers own replicas and the master only orchestrates the
// averaging.
type Engine struct {
	cfg       Config
	clients   []cluster.Client
	mdl       model.Model
	o         opt.Optimizer
	params    *model.Params // nil for MLlib*
	m         int
	n         int
	trace     *metrics.Trace
	iter      int64
	wallStart time.Time
	// drv executes the round plan: concurrent fan-out with task-retry
	// semantics (transient errors relaunch the call on the same worker;
	// at-least-once re-execution is safe for the pure compute calls,
	// and for MLlib* local training a retry advances the replica twice,
	// which the differential harness treats as tolerance-band noise,
	// matching Spark recomputation semantics). RowSGD baselines have no
	// worker-restart path (a dead worker loses its row shard), so the
	// driver gets no Recover hook and ErrWorkerDown is terminal.
	drv *driver.Driver

	// lbh is the dense-history L-BFGS state (Solver "lbfgs"): the same
	// coefficient-space core the column engine runs, fed from dense
	// master-side s/y vectors.
	lbh *opt.LBFGSHistory

	// ds is retained under elastic membership so a migrated slot can
	// re-ship its row shard to the new host.
	ds *dataset.Dataset
	// ctl/pool drive elastic membership (nil on fixed-membership runs).
	ctl  *membership.Controller
	pool membership.NodePool
	// migPhases/migExtra hold a rebalance's priced cost until the next
	// finished iteration consumes it.
	migPhases []simnet.Phase
	migExtra  time.Duration
}

// Retries returns how many transient call failures were retried.
func (e *Engine) Retries() int64 { return e.drv.Retries() }

// Restarts returns how many worker restarts were performed — always
// zero here (no restart path), exposed so all engines report
// fault-tolerance counters through the same surface.
func (e *Engine) Restarts() int64 { return e.drv.Restarts() }

// NewEngine validates the config and prepares the master. Configs with
// a Membership schedule need NewElasticEngine — the engine must control
// slot hosting, which a bare client slice cannot express.
func NewEngine(cfg Config, clients []cluster.Client) (*Engine, error) {
	e, err := newEngine(cfg, clients)
	if err != nil {
		return nil, err
	}
	if e.cfg.Membership != "" {
		return nil, fmt.Errorf("rowsgd: Membership needs an elastic provider; use NewElasticEngine")
	}
	return e, nil
}

func newEngine(cfg Config, clients []cluster.Client) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(clients) != cfg.Workers {
		return nil, fmt.Errorf("rowsgd: %d clients for %d workers", len(clients), cfg.Workers)
	}
	mdl, err := model.New(cfg.ModelName, cfg.ModelArg)
	if err != nil {
		return nil, err
	}
	if cfg.Precision == "f32" {
		if _, ok := model.Kernel32Of(mdl); !ok {
			return nil, fmt.Errorf("rowsgd: model %s has no float32 kernels; Precision %q needs model.Kernel32", mdl.Name(), cfg.Precision)
		}
	}
	var o opt.Optimizer
	if cfg.System != MLlibStar {
		if o, err = opt.New(cfg.Opt); err != nil {
			return nil, err
		}
	} else if _, err := opt.New(cfg.Opt); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, clients: clients, mdl: mdl, o: o,
		drv: driver.New(clients, driver.Options{})}
	if cfg.Solver == opt.SolverLBFGS {
		e.lbh = opt.NewLBFGSHistory(cfg.LBFGSMemory)
	}
	return e, nil
}

// systemName is the trace label: solver rounds that change the round
// shape get a suffix, classic rounds (sgd, local K = 1, and MLlib*'s
// local alias) keep the bare system name so goldens hold.
func (e *Engine) systemName() string {
	name := string(e.cfg.System)
	switch {
	case e.cfg.Solver == opt.SolverLBFGS:
		name += fmt.Sprintf("-lbfgs%d", e.cfg.LBFGSMemory)
	case e.cfg.Solver == opt.SolverLocal && e.cfg.LocalSteps > 1 && e.cfg.System != MLlibStar:
		name += fmt.Sprintf("-local%d", e.cfg.LocalSteps)
	}
	return name
}

// workers lists all worker indices (RowSGD has no live/dead set: losing
// a worker loses its shard).
func (e *Engine) workers() []int {
	out := make([]int, e.cfg.Workers)
	for i := range out {
		out[i] = i
	}
	return out
}

// NewLocalEngine spins up an in-process cluster and engine together.
func NewLocalEngine(cfg Config) (*Engine, error) {
	codec, err := wire.ParseCodec(cfg.Codec)
	if err != nil {
		return nil, err
	}
	local, err := cluster.NewLocalCodec(cfg.Workers, func(int) (*cluster.Service, error) {
		return NewWorkerService(), nil
	}, codec)
	if err != nil {
		return nil, err
	}
	return NewEngine(cfg, local.Clients())
}

// Trace returns the run's metrics trace (nil before Load).
func (e *Engine) Trace() *metrics.Trace { return e.trace }

// Model returns the model kernels.
func (e *Engine) Model() model.Model { return e.mdl }

// Params returns the master's model (nil for MLlib*; use WorkerModel).
func (e *Engine) Params() *model.Params { return e.params }

// Load row-partitions the dataset across the workers and records the
// modeled loading time (with the optional global repartition shuffle).
func (e *Engine) Load(ds *dataset.Dataset) error {
	if ds.N() == 0 {
		return fmt.Errorf("rowsgd: empty dataset")
	}
	if ds.N() < e.cfg.Workers {
		return fmt.Errorf("rowsgd: %d rows cannot feed %d workers", ds.N(), e.cfg.Workers)
	}
	e.m = ds.NumFeatures
	e.n = ds.N()
	e.trace = &metrics.Trace{
		System:  e.systemName(),
		Dataset: fmt.Sprintf("n%d-m%d", ds.N(), ds.NumFeatures),
		ModelID: e.mdl.Name(),
	}

	if e.ctl != nil {
		e.ds = ds
	}
	for w := 0; w < e.cfg.Workers; w++ {
		w := w
		if err := e.loadWorker(w, ds, func(method string, args, reply interface{}) error {
			return e.drv.Call(w, driver.Call{Method: method, Args: args, Reply: reply}, nil, nil)
		}); err != nil {
			return err
		}
	}

	if e.cfg.System != MLlibStar {
		e.params = model.NewParams(e.mdl.ParamRows(), ds.NumFeatures)
		e.mdl.Init(e.params, rand.New(rand.NewSource(e.cfg.Seed)))
	}

	stats := partition.RowDispatchStats(ds, e.cfg.Workers, e.cfg.Repartition)
	e.trace.LoadCost = e.cfg.Net.LoadTime(stats.Messages, stats.Bytes, e.cfg.Workers, ds.NNZ()/int64(e.cfg.Workers))
	e.recordMemory(ds)
	return nil
}

// loadWorker initializes worker w and ships its row shard — rows
// [w·N/K, (w+1)·N/K) in ChunkRows chunks — through call, finishing with
// LoadDone. Load uses it for the initial dispatch and migration reuses
// it verbatim on a slot's new host, so a rehosted worker rebuilds the
// exact shard (and, via the slot-derived seed, the exact sample stream)
// its predecessor held.
func (e *Engine) loadWorker(w int, ds *dataset.Dataset, call func(method string, args, reply interface{}) error) error {
	args := &InitArgs{
		Worker:      w,
		NumFeatures: ds.NumFeatures,
		ModelName:   e.cfg.ModelName,
		ModelArg:    e.cfg.ModelArg,
		Opt:         e.cfg.Opt,
		HoldModel:   e.cfg.System == MLlibStar,
		Seed:        e.cfg.Seed,
		Parallelism: e.cfg.Parallelism,
		Precision:   e.cfg.Precision,
	}
	if err := call(MethodInit, args, nil); err != nil {
		return fmt.Errorf("rowsgd: init worker %d: %w", w, err)
	}
	per := (ds.N() + e.cfg.Workers - 1) / e.cfg.Workers
	lo := w * per
	hi := lo + per
	if hi > ds.N() {
		hi = ds.N()
	}
	if lo >= hi {
		return fmt.Errorf("rowsgd: worker %d would receive no rows", w)
	}
	for clo := lo; clo < hi; clo += e.cfg.ChunkRows {
		chi := clo + e.cfg.ChunkRows
		if chi > hi {
			chi = hi
		}
		csr := vec.NewCSR(int32(ds.NumFeatures), chi-clo)
		labels := make([]float64, 0, chi-clo)
		for i := clo; i < chi; i++ {
			if err := csr.AppendRow(ds.Points[i].Features); err != nil {
				return err
			}
			labels = append(labels, ds.Points[i].Label)
		}
		// Loads are not idempotent, so they never retry (Retry false).
		if err := call(MethodLoadRows, &LoadRowsArgs{Labels: labels, Data: csr}, nil); err != nil {
			return fmt.Errorf("rowsgd: load worker %d: %w", w, err)
		}
	}
	return call(MethodLoadDone, &LoadDoneArgs{}, nil)
}

// Step runs one outer iteration of the selected system.
func (e *Engine) Step() (float64, error) {
	if e.trace == nil {
		return 0, fmt.Errorf("rowsgd: Load must run before Step")
	}
	if e.cfg.Staleness > 0 {
		return 0, fmt.Errorf("rowsgd: Step is BSP-only; Run drives bounded-staleness execution")
	}
	if err := e.maybeRebalance(); err != nil {
		return 0, err
	}
	e.wallStart = time.Now()
	// The solver decides the round shape. "local" with K = 1 is exactly
	// the classic exchange (and MLlib*'s classic exchange already is
	// local-step averaging), so only genuinely different rounds divert.
	switch {
	case e.cfg.Solver == opt.SolverLBFGS:
		return e.stepLBFGSRow()
	case e.cfg.Solver == opt.SolverLocal && e.cfg.LocalSteps > 1 && e.cfg.System != MLlibStar:
		return e.stepLocalDelta()
	}
	switch e.cfg.System {
	case MLlib, Petuum:
		return e.stepPullPush()
	case MXNet:
		return e.stepSparse()
	case MLlibStar:
		return e.stepMA()
	}
	return 0, fmt.Errorf("rowsgd: unreachable system %q", e.cfg.System)
}

// perWorkerBatch splits the global batch.
func (e *Engine) perWorkerBatch() int { return e.cfg.BatchSize / e.cfg.Workers }

// stepPullPush implements Algorithm 2: broadcast the dense model, gather
// sparse gradients, update at the master. MLlib and Petuum share the math;
// only the link pricing differs.
func (e *Engine) stepPullPush() (float64, error) {
	iter := e.cfg.Seed + e.iter
	batch := e.perWorkerBatch()
	tr := &driver.Traffic{}
	replies := make([]GradReply, e.cfg.Workers)
	// Concurrent fan-out; replies land in worker-indexed slots so the
	// gradient aggregation below stays in deterministic worker order.
	if _, err := e.drv.Gather(e.workers(), tr, func(_, w int) driver.Call {
		return driver.Call{Method: MethodComputeGrad,
			Args:  &ComputeGradArgs{Iter: iter, BatchSize: batch, Model: ToDense(e.params.W)},
			Reply: &replies[w], Retry: true}
	}); err != nil {
		return 0, err
	}

	loss, nnz, err := e.applyGrads(replies)
	if err != nil {
		return 0, err
	}

	// Phase split: the pull direction carries K dense model copies; the
	// push direction is the remainder (sparse gradients).
	pullBytes := int64(e.cfg.Workers) * e.modelWireBytes()
	total := tr.Bytes()
	pushBytes := total - pullBytes
	if pushBytes < 0 {
		pushBytes = 0
		pullBytes = total
	}
	phases := []simnet.Phase{
		{Label: "pull-model", Messages: tr.Messages() / 2, Bytes: pullBytes, Links: e.cfg.links()},
		{Label: "push-grads", Messages: tr.Messages() / 2, Bytes: pushBytes, Links: e.cfg.links()},
	}
	return loss, e.finishIteration(loss, nnz, phases)
}

// stepSparse implements the MXNet sparse-pull path: workers report the
// dimensions their batch touches, receive only those values, and push
// sparse gradients.
func (e *Engine) stepSparse() (float64, error) {
	iter := e.cfg.Seed + e.iter
	batch := e.perWorkerBatch()
	needArgs := &NeedArgs{Iter: iter, BatchSize: batch}
	trNeed := &driver.Traffic{}
	needs := make([]NeedReply, e.cfg.Workers)
	if _, err := e.drv.Gather(e.workers(), trNeed, func(_, w int) driver.Call {
		return driver.Call{Method: MethodNeededDims, Args: needArgs, Reply: &needs[w], Retry: true}
	}); err != nil {
		return 0, err
	}

	// The second fan-out genuinely depends on the first: each worker's
	// pulled values are gathered from the dimensions it just reported.
	trGrad := &driver.Traffic{}
	replies := make([]GradReply, e.cfg.Workers)
	if _, err := e.drv.Gather(e.workers(), trGrad, func(_, w int) driver.Call {
		dims := needs[w].Dims
		values := make([]DenseVec, e.mdl.ParamRows())
		for r := range values {
			values[r] = make([]float64, len(dims))
			for i, d := range dims {
				values[r][i] = e.params.W[r][d]
			}
		}
		return driver.Call{Method: MethodSparseGrad,
			Args:  &SparseGradArgs{Iter: iter, BatchSize: batch, Dims: dims, Values: values},
			Reply: &replies[w], Retry: true}
	}); err != nil {
		return 0, err
	}

	loss, nnz, err := e.applyGrads(replies)
	if err != nil {
		return 0, err
	}
	phases := []simnet.Phase{
		trNeed.Phase("request-dims", e.cfg.links()),
		trGrad.Phase("sparse-pull+push", e.cfg.links()),
	}
	return loss, e.finishIteration(loss, nnz, phases)
}

// stepMA implements MLlib*: local steps on each replica, then a model-
// averaging AllReduce (master-mediated here; byte volume matches a ring).
func (e *Engine) stepMA() (float64, error) {
	iter := e.cfg.Seed + e.iter
	ltArgs := &LocalTrainArgs{Iter: iter, Steps: e.cfg.LocalSteps, BatchSize: e.perWorkerBatch()}
	trLocal := &driver.Traffic{}
	ltReplies := make([]LocalTrainReply, e.cfg.Workers)
	if _, err := e.drv.Gather(e.workers(), trLocal, func(_, w int) driver.Call {
		return driver.Call{Method: MethodLocalTrain, Args: ltArgs, Reply: &ltReplies[w], Retry: true}
	}); err != nil {
		return 0, err
	}
	var lossSum float64
	var nnz int64
	for w := range ltReplies {
		lossSum += ltReplies[w].LossMean
		if ltReplies[w].NNZ > nnz {
			nnz = ltReplies[w].NNZ
		}
	}

	// AllReduce averaging: gather all replicas, then sum in worker
	// order (floating-point addition order is part of bit-identity).
	trAll := &driver.Traffic{}
	mReplies := make([]ModelReply, e.cfg.Workers)
	if _, err := e.drv.Gather(e.workers(), trAll, func(_, w int) driver.Call {
		return driver.Call{Method: MethodGetModel, Args: &GetModelArgs{}, Reply: &mReplies[w], Retry: true}
	}); err != nil {
		return 0, err
	}
	avg := model.NewParams(e.mdl.ParamRows(), e.m)
	for w := range mReplies {
		if err := avg.Add(&model.Params{W: FromDenseVecs(mReplies[w].W)}); err != nil {
			return 0, err
		}
	}
	avg.Scale(1 / float64(e.cfg.Workers))
	setArgs := &SetModelArgs{W: ToDense(avg.W)}
	if _, err := e.drv.Gather(e.workers(), trAll, func(_, w int) driver.Call {
		return driver.Call{Method: MethodSetModel, Args: setArgs, Retry: true}
	}); err != nil {
		return 0, err
	}

	loss := lossSum / float64(e.cfg.Workers)
	phases := []simnet.Phase{
		trLocal.Phase("local-train", e.cfg.links()),
		trAll.Phase("allreduce", e.cfg.links()),
	}
	return loss, e.finishIteration(loss, nnz, phases)
}

// applyGrads sums the workers' sparse gradients (scaled so the result is
// the mean over the global batch), applies the optimizer, and returns the
// batch loss and max worker kernel work.
func (e *Engine) applyGrads(replies []GradReply) (float64, int64, error) {
	grad := model.NewParams(e.mdl.ParamRows(), e.m)
	var lossSum float64
	var count int
	var maxNNZ int64
	for i := range replies {
		r := &replies[i]
		if len(r.Grad) != grad.Rows() {
			return 0, 0, fmt.Errorf("rowsgd: gradient reply has %d rows, want %d", len(r.Grad), grad.Rows())
		}
		// Workers average over their local batch; rescale to the global
		// mean: each contributes (local count / global count) weight.
		for row := range r.Grad {
			blk := r.Grad[row]
			for k, idx := range blk.Indices {
				if int(idx) >= e.m {
					return 0, 0, fmt.Errorf("rowsgd: gradient index %d out of range", idx)
				}
				grad.W[row][idx] += blk.Values[k] * float64(r.Count)
			}
		}
		lossSum += r.LossSum
		count += r.Count
		if r.NNZ > maxNNZ {
			maxNNZ = r.NNZ
		}
	}
	if count == 0 {
		return 0, 0, fmt.Errorf("rowsgd: empty global batch")
	}
	grad.Scale(1 / float64(count))
	if err := e.o.Apply(e.params, grad); err != nil {
		return 0, 0, err
	}
	return lossSum / float64(count), maxNNZ, nil
}

// finishIteration prices the iteration (through the shared measured-
// phase seam) and appends it to the trace.
func (e *Engine) finishIteration(loss float64, maxNNZ int64, phases []simnet.Phase) error {
	// A rebalance that ran at this round's barrier is priced here: its
	// wire traffic as a leading phase, its modeled reload time as compute
	// extra (the same attribution recovery time gets).
	phases = append(e.takeMigrationPhases(), phases...)
	cost, err := costmodel.PriceRound(costmodel.Measured(phases), maxNNZ, e.cfg.Net)
	if err != nil {
		return err
	}
	cost.Compute += e.takeMigrationExtra()
	recLoss := loss
	if e.cfg.EvalEvery > 0 {
		if int(e.iter)%e.cfg.EvalEvery == 0 {
			full, err := e.FullLoss()
			if err != nil {
				return err
			}
			recLoss = full
		} else {
			recLoss = nanF()
		}
	}
	e.trace.Append(metrics.Iteration{
		Index:        int(e.iter),
		Loss:         recLoss,
		Cost:         cost,
		Phases:       phases,
		MaxWorkerNNZ: maxNNZ,
		Wall:         time.Since(e.wallStart),
	})
	e.drv.Publish(e.trace)
	e.iter++
	return nil
}

func nanF() float64 {
	var z float64
	return 0 / z
}

// modelWireBytes estimates the serialized size of one dense model copy.
func (e *Engine) modelWireBytes() int64 {
	return int64(e.mdl.ParamRows()) * (int64(e.m)*8 + 48)
}

// Run executes iters outer iterations. With Staleness > 0 the run
// executes under the bounded-staleness engine instead of barriered
// Steps.
func (e *Engine) Run(iters int) (*metrics.Trace, error) {
	if e.cfg.Staleness > 0 {
		if e.ctl == nil {
			return e.runSSP(iters)
		}
		// Elastic SSP: split the run into segments at membership-event
		// rounds; the rebalance barrier between segments migrates slots
		// while no statistics are in flight.
		if e.trace == nil {
			return nil, fmt.Errorf("rowsgd: Load must run before Run")
		}
		end := e.iter + int64(iters)
		for e.iter < end {
			if err := e.maybeRebalance(); err != nil {
				return e.trace, err
			}
			seg := int(end - e.iter)
			if next := e.ctl.NextRound(); next >= 0 && int64(next) < end {
				if s := next - int(e.iter); s < seg {
					seg = s
				}
			}
			if _, err := e.runSSP(seg); err != nil {
				return e.trace, err
			}
		}
		return e.trace, nil
	}
	for i := 0; i < iters; i++ {
		if _, err := e.Step(); err != nil {
			return e.trace, err
		}
	}
	return e.trace, nil
}

// FullLoss evaluates the training loss over all shards.
func (e *Engine) FullLoss() (float64, error) {
	args := &EvalArgs{}
	if e.params != nil {
		args.Model = ToDense(e.params.W)
	}
	var lossSum float64
	var count int
	for w := 0; w < e.cfg.Workers; w++ {
		var r EvalReply
		if err := e.drv.Call(w, driver.Call{Method: MethodEvalLoss, Args: args, Reply: &r, Retry: true}, nil, nil); err != nil {
			return 0, err
		}
		lossSum += r.LossSum
		count += r.Count
	}
	if count == 0 {
		return 0, fmt.Errorf("rowsgd: no evaluation points")
	}
	return lossSum / float64(count), nil
}

// ExportModel returns the trained model: the master copy, or worker 0's
// replica for MLlib* (replicas are identical right after averaging).
func (e *Engine) ExportModel() (*model.Params, error) {
	if e.params != nil {
		return e.params.Clone(), nil
	}
	var r ModelReply
	if err := e.drv.Call(0, driver.Call{Method: MethodGetModel, Args: &GetModelArgs{}, Reply: &r, Retry: true}, nil, nil); err != nil {
		return nil, err
	}
	return &model.Params{W: FromDenseVecs(r.W)}, nil
}

// recordMemory captures the Table I memory model: the master holds the
// model plus a gradient aggregation buffer (m + mφ₂); each worker holds
// its shard plus model- and gradient-sized buffers (S/K + 2mφ₁).
func (e *Engine) recordMemory(ds *dataset.Dataset) {
	rows := int64(e.mdl.ParamRows())
	modelBytes := rows * int64(e.m) * 8
	if e.cfg.System == MLlibStar {
		// No central model; the driver only orchestrates averaging (one
		// model-sized buffer during the reduce).
		e.trace.PeakMasterBytes = modelBytes
	} else {
		e.trace.PeakMasterBytes = 2 * modelBytes
	}
	e.trace.PeakWorkerBytes = ds.SizeBytes()/int64(e.cfg.Workers) + 2*modelBytes
}
