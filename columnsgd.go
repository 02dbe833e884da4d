// Package columnsgd is a column-oriented framework for distributed
// stochastic gradient descent, reproducing "ColumnSGD: A Column-oriented
// Framework for Distributed Stochastic Gradient Descent" (Zhang et al.,
// ICDE 2020).
//
// Training data and model are partitioned by columns (features) and
// collocated on the same workers, so each SGD iteration exchanges only
// O(batch·statistics) bytes — partial dot products and friends — instead
// of O(model) gradients and parameters. The package trains generalized
// linear models (logistic regression, linear SVM, least squares,
// multinomial logistic regression) and factorization machines, with
// vanilla SGD, momentum, AdaGrad, or Adam updates, S-backup straggler
// mitigation, and worker fault tolerance.
//
// Quick start:
//
//	ds, _ := columnsgd.Generate(columnsgd.Synthetic{N: 10000, Features: 1000, NNZPerRow: 10, Seed: 1})
//	res, _ := columnsgd.Train(ds, columnsgd.Config{Model: columnsgd.LogisticRegression, Workers: 4, BatchSize: 256, LearningRate: 0.5, Iterations: 200})
//	fmt.Println(res.FinalLoss, res.Accuracy(ds))
//
// Workers may also run as separate processes over TCP; see ServeWorker
// and Config.WorkerAddrs (cmd/colsgd-node provides a ready binary).
package columnsgd

import (
	"fmt"
	"time"

	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/membership"
	"columnsgd/internal/metrics"
	"columnsgd/internal/model"
	"columnsgd/internal/opt"
	"columnsgd/internal/simnet"
	"columnsgd/internal/vec"
	"columnsgd/internal/wire"
)

// ModelKind selects what to train.
type ModelKind string

// Supported models (paper §VIII).
const (
	LogisticRegression ModelKind = "lr"
	LinearSVM          ModelKind = "svm"
	LeastSquares       ModelKind = "linreg"
	// Multinomial needs Config.Classes.
	Multinomial ModelKind = "mlr"
	// FactorizationMachine needs Config.Factors.
	FactorizationMachine ModelKind = "fm"
)

// Optimizer selects the update rule (Algorithm 3, line 20).
type Optimizer string

// Supported optimizers.
const (
	SGD      Optimizer = "sgd"
	Momentum Optimizer = "momentum"
	AdaGrad  Optimizer = "adagrad"
	Adam     Optimizer = "adam"
)

// Config configures a ColumnSGD training run.
type Config struct {
	// Model picks the model kind (default LogisticRegression).
	Model ModelKind
	// Classes is the class count for Multinomial.
	Classes int
	// Factors is the latent factor count for FactorizationMachine.
	Factors int

	// Workers is the number of column partitions / workers (default 4).
	Workers int
	// Backup enables S-backup computation: Workers must be divisible by
	// Backup+1, and each worker replicates Backup+1 partitions (§IV-B).
	Backup int

	// Optimizer selects the update rule (default SGD).
	Optimizer Optimizer
	// LearningRate is η (required, > 0).
	LearningRate float64
	// L2 and L1 add regularization.
	L2, L1 float64
	// MomentumCoeff is used by Momentum (default 0.9).
	MomentumCoeff float64
	// AdamBeta1, AdamBeta2, and Eps tune Adam/AdaGrad (defaults 0.9,
	// 0.999, 1e-8).
	AdamBeta1, AdamBeta2, Eps float64

	// BatchSize is B (default 256).
	BatchSize int
	// Iterations is the number of SGD steps (default 100).
	Iterations int
	// BlockSize is the loading block size of Algorithm 4 (default 1024).
	BlockSize int
	// EpochAccess switches from random mini-batch sampling (the paper's
	// two-phase index) to sequential epoch access: each iteration
	// processes one whole block from a per-epoch shuffled order, and
	// BatchSize is ignored.
	EpochAccess bool
	// Seed makes runs reproducible (default 1).
	Seed int64
	// EvalEvery records the full training loss every n iterations
	// instead of the per-iteration mini-batch loss.
	EvalEvery int

	// WorkerAddrs, when non-empty, runs against remote TCP workers (one
	// address per worker, each serving via ServeWorker or
	// cmd/colsgd-node) instead of in-process workers. len(WorkerAddrs)
	// must equal Workers.
	WorkerAddrs []string

	// SimulateStragglerLevel > 0 injects one modeled straggler per
	// iteration running (1+level)× slower — the paper's StragglerLevel
	// experiment (§IV-B). With Backup > 0 the straggler is a fixed slow
	// machine; KillStragglers lets the master drop it once its backup
	// group covers for it.
	SimulateStragglerLevel float64
	// KillStragglers permanently drops detected stragglers whose backup
	// group has a live replica (requires Backup > 0).
	KillStragglers bool

	// Parallelism sizes each worker's deterministic compute pool
	// (internal/par): 0 means GOMAXPROCS, 1 computes inline. Any value
	// yields a bit-identical model — fixed chunk boundaries and ordered
	// reduction make it purely a throughput knob.
	Parallelism int

	// Pipeline overlaps iteration t+1's batch-plan broadcast and
	// statistics computation with iteration t's update broadcast. Batch
	// plans are model-independent, so the trained model is bit-identical
	// with or without pipelining — it is purely a wall-clock
	// optimization (cmd/colsgd-train enables it by default).
	Pipeline bool

	// Staleness runs training under bounded-staleness (SSP) execution:
	// workers may run up to Staleness iterations ahead of the slowest,
	// overlapping straggler delays instead of serializing them at a
	// barrier, with statistics merged on arrival in deterministic worker
	// order. 0 (the default) keeps synchronous BSP rounds. Incompatible
	// with Backup and Pipeline (both are BSP round mechanisms).
	Staleness int
	// StalenessSeed selects the per-worker lag schedule under Staleness:
	// 0 means max slack (every read exactly Staleness rounds stale);
	// nonzero seeds a jittered lag in [0, Staleness] per (worker,
	// iteration). The same seed replays the identical schedule bit for
	// bit.
	StalenessSeed int64

	// Codec selects the statistics value encoding on the wire: "wire"
	// (lossless, the default) or the lossy "wire-f32" / "wire-f16"
	// variants that quantize statistics values to trade accuracy for
	// bytes. Over TCP the master names it in each connection's hello.
	Codec string

	// Precision selects the workers' numeric width: "" or "f64" (the
	// default) trains in float64, "f32" switches the worker hot path —
	// model partitions, row values, optimizer state, and the
	// statistics/gradient kernels — to float32, roughly halving kernel
	// memory traffic at the cost of bounded rounding differences (the
	// differential tests pin convergence within tolerance of f64).
	// Statistics still cross the wire as float64 (widened exactly), the
	// master aggregates in float64, and reported losses are float64
	// either way, so traces stay comparable across precisions. f32 runs
	// keep every determinism guarantee: bit-identical at any Parallelism
	// and replay-stable under fault schedules. Pair with Codec
	// "wire-f32" to also halve statistics bytes — lossless under f32,
	// since the values are already float32-representable.
	Precision string

	// Solver selects the master-side update rule: "" or "sgd" (the
	// default classic round — one optimizer step per statistics
	// exchange), "local" (each worker runs LocalSteps optimizer steps
	// per exchange against a frozen-peer statistics estimate, trading a
	// 1.5× round for K× the local progress), or "lbfgs" (master-side
	// L-BFGS over gathered partial dot products with a deterministic
	// backtracking line search; full-batch, so BatchSize is ignored).
	// "sgd" is bit-identical to leaving the field empty, and "local"
	// with LocalSteps 1 is bit-identical to "sgd".
	Solver string
	// LocalSteps is K for the "local" solver (0 means the default 4,
	// max 64). Setting it with any other solver is an error.
	LocalSteps int
	// LBFGSMemory is m, the curvature-pair history of the "lbfgs"
	// solver (0 means the default 8, max 32). Setting it with any other
	// solver is an error.
	LBFGSMemory int

	// Membership schedules elastic cluster-membership events, e.g.
	// "leave@3:1,join@6:4,crash@9:0" — at the barrier before round 3,
	// node 1 announces departure and its column partitions migrate to the
	// remaining fleet; before round 6 node 4 joins and partitions
	// rebalance onto it; before round 9 node 0 crashes (state lost, its
	// partitions reinitialize from the seed on a survivor). Worker slots
	// are logical and fixed, so graceful migrations are bit-identical to
	// a fixed-membership run. Requires in-process workers (incompatible
	// with WorkerAddrs) and is incompatible with Backup.
	Membership string
}

func (c Config) normalized() (Config, error) {
	if c.Model == "" {
		c.Model = LogisticRegression
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Optimizer == "" {
		c.Optimizer = SGD
	}
	if c.Optimizer == Momentum && c.MomentumCoeff == 0 {
		c.MomentumCoeff = 0.9
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.Iterations == 0 {
		c.Iterations = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LearningRate <= 0 {
		return c, fmt.Errorf("columnsgd: LearningRate must be positive")
	}
	if len(c.WorkerAddrs) > 0 && len(c.WorkerAddrs) != c.Workers {
		return c, fmt.Errorf("columnsgd: %d worker addresses for %d workers", len(c.WorkerAddrs), c.Workers)
	}
	if _, err := wire.ParseCodec(c.Codec); err != nil {
		return c, fmt.Errorf("columnsgd: %w", err)
	}
	sc, err := opt.SolverConfig{Name: c.Solver, LocalSteps: c.LocalSteps, LBFGSMemory: c.LBFGSMemory}.Normalized()
	if err != nil {
		return c, fmt.Errorf("columnsgd: %w", err)
	}
	c.Solver, c.LocalSteps, c.LBFGSMemory = sc.Name, sc.LocalSteps, sc.LBFGSMemory
	switch c.Precision {
	case "", "f64", "f32":
	default:
		return c, fmt.Errorf("columnsgd: unknown Precision %q (want \"f64\" or \"f32\")", c.Precision)
	}
	if c.Membership != "" {
		if len(c.WorkerAddrs) > 0 {
			return c, fmt.Errorf("columnsgd: Membership needs in-process workers (WorkerAddrs fleets are operator-managed)")
		}
		sched, err := membership.Parse(c.Membership)
		if err != nil {
			return c, fmt.Errorf("columnsgd: %w", err)
		}
		if err := sched.Validate(c.Workers); err != nil {
			return c, fmt.Errorf("columnsgd: %w", err)
		}
	}
	return c, nil
}

// codec resolves the configured wire codec (normalized() has already
// validated the string).
func (c Config) codec() wire.Codec {
	codec, _ := wire.ParseCodec(c.Codec)
	return codec
}

func (c Config) modelArg() int {
	switch c.Model {
	case Multinomial:
		return c.Classes
	case FactorizationMachine:
		return c.Factors
	default:
		return 0
	}
}

func (c Config) coreConfig() core.Config {
	var stragglers core.StragglerSpec
	if c.SimulateStragglerLevel > 0 {
		stragglers = core.StragglerSpec{Mode: "random", Level: c.SimulateStragglerLevel}
		if c.Backup > 0 {
			stragglers.Mode = "fixed"
			stragglers.Worker = c.Workers - 1
		}
	}
	access := ""
	if c.EpochAccess {
		access = "epoch"
	}
	return core.Config{
		Stragglers:     stragglers,
		KillStragglers: c.KillStragglers,
		Access:         access,
		Workers:        c.Workers,
		Backup:         c.Backup,
		ModelName:      string(c.Model),
		ModelArg:       c.modelArg(),
		Opt: opt.Config{
			Algo:     string(c.Optimizer),
			LR:       c.LearningRate,
			L2:       c.L2,
			L1:       c.L1,
			Momentum: c.MomentumCoeff,
			Beta1:    c.AdamBeta1,
			Beta2:    c.AdamBeta2,
			Eps:      c.Eps,
		},
		BatchSize:          c.BatchSize,
		BlockSize:          c.BlockSize,
		Seed:               c.Seed,
		Net:                simnet.Cluster1().WithWorkers(c.Workers),
		EvalEvery:          c.EvalEvery,
		ComputeParallelism: c.Parallelism,
		Pipeline:           c.Pipeline,
		Staleness:          c.Staleness,
		StalenessSeed:      c.StalenessSeed,
		Precision:          c.Precision,
		Membership:         c.Membership,
		Solver:             c.Solver,
		LocalSteps:         c.LocalSteps,
		LBFGSMemory:        c.LBFGSMemory,
	}
}

// LossPoint is one sample of the training-loss curve.
type LossPoint struct {
	// Iteration is the SGD step index.
	Iteration int
	// Loss is the recorded training loss at that step.
	Loss float64
	// Elapsed is the cumulative modeled cluster time.
	Elapsed time.Duration
}

// Result holds a completed training run.
type Result struct {
	// FinalLoss is the full-training-set loss of the final model.
	FinalLoss float64
	// LossCurve samples the loss trajectory.
	LossCurve []LossPoint
	// CommBytes is the total statistics traffic of the run.
	CommBytes int64
	// LoadTime and TrainTime are the modeled cluster times for loading
	// and for the SGD iterations.
	LoadTime, TrainTime time.Duration
	// Rebalances counts applied membership plans (zero unless
	// Config.Membership scheduled events); MigrationBytes is the model
	// and optimizer state those migrations shipped between nodes.
	Rebalances, MigrationBytes int64

	mdl    model.Model
	params *model.Params
}

// Trainer is a live ColumnSGD session: load once, then step, inspect, and
// export as needed. Train wraps it for one-shot use.
type Trainer struct {
	cfg    Config
	engine *core.Engine
}

// newProvider starts the configured worker set: in-process workers, or
// remote TCP workers when Config.WorkerAddrs is set, on the configured
// statistics codec. Elastic schedules (Config.Membership) get a
// rehostable node pool instead of the fixed local fleet.
func (c Config) newProvider() (core.Provider, error) {
	if len(c.WorkerAddrs) > 0 {
		return core.NewRemoteProviderCodec(c.WorkerAddrs, c.codec())
	}
	if c.Membership != "" {
		return membership.NewPool(c.Workers, func(slot int) (*cluster.Service, error) {
			return core.NewWorkerService(), nil
		}, c.codec())
	}
	return core.NewLocalProviderCodec(c.Workers, c.codec())
}

// NewTrainer starts workers (in-process, or remote when
// Config.WorkerAddrs is set) and loads the dataset.
func NewTrainer(ds *Dataset, cfg Config) (*Trainer, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	prov, err := cfg.newProvider()
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(cfg.coreConfig(), prov)
	if err != nil {
		return nil, err
	}
	if err := engine.Load(ds.ds); err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, engine: engine}, nil
}

// NewTrainerFromFile streams a LibSVM file through the loading pipeline
// without materializing it at the master — use this for datasets larger
// than the master's memory. features is the model dimension m.
func NewTrainerFromFile(path string, features int, cfg Config) (*Trainer, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	prov, err := cfg.newProvider()
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(cfg.coreConfig(), prov)
	if err != nil {
		return nil, err
	}
	if err := engine.LoadFile(path, features); err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, engine: engine}, nil
}

// Step runs one SGD iteration and returns its mini-batch loss.
func (t *Trainer) Step() (float64, error) {
	st, err := t.engine.Step()
	return st.Loss, err
}

// Run performs n iterations.
func (t *Trainer) Run(n int) error {
	_, err := t.engine.Run(n)
	return err
}

// FullLoss evaluates the loss over the whole training set using the
// distributed statistics path.
func (t *Trainer) FullLoss() (float64, error) { return t.engine.FullLoss() }

// Result snapshots the run so far, assembling the model from the worker
// partitions.
func (t *Trainer) Result() (*Result, error) {
	params, err := t.engine.ExportModel()
	if err != nil {
		return nil, err
	}
	final, err := t.engine.FullLoss()
	if err != nil {
		return nil, err
	}
	tr := t.engine.Trace()
	res := &Result{
		FinalLoss:      final,
		CommBytes:      tr.CommBytes(),
		LoadTime:       tr.LoadCost,
		Rebalances:     tr.Rebalances,
		MigrationBytes: tr.MigrationBytes,
		mdl:            t.engine.Model(),
		params:         params,
	}
	var elapsed time.Duration
	for _, it := range tr.Iterations {
		elapsed += it.Cost.Total()
		if it.Loss == it.Loss { // skip NaN placeholders
			res.LossCurve = append(res.LossCurve, LossPoint{Iteration: it.Index, Loss: it.Loss, Elapsed: elapsed})
		}
	}
	res.TrainTime = elapsed
	return res, nil
}

// Accuracy evaluates training-set classification accuracy through the
// distributed statistics path — no model assembly, so it works at model
// scales where ExportModel/Result would be impractical.
func (t *Trainer) Accuracy() (float64, error) { return t.engine.FullAccuracy() }

// SetWeights warm-starts (or restores) the distributed model from full
// parameter rows — the inverse of Result.Weights. Shapes must match the
// configured model; per-partition optimizer state is reset.
func (t *Trainer) SetWeights(w [][]float64) error {
	full := &model.Params{W: make([][]float64, len(w))}
	for i := range w {
		full.W[i] = append([]float64(nil), w[i]...)
	}
	return t.engine.ImportModel(full)
}

// Trace exposes the detailed per-iteration metrics of the run.
func (t *Trainer) Trace() *metrics.Trace { return t.engine.Trace() }

// Train runs the full configured training and returns the result.
func Train(ds *Dataset, cfg Config) (*Result, error) {
	t, err := NewTrainer(ds, cfg)
	if err != nil {
		return nil, err
	}
	if err := t.Run(t.cfg.Iterations); err != nil {
		return nil, err
	}
	return t.Result()
}

// Predict scores one feature vector with the trained model: the margin
// sign (±1) for binary models, the class index for Multinomial, the
// regression value for LeastSquares.
func (r *Result) Predict(features SparseVector) (float64, error) {
	sp, err := features.toVec()
	if err != nil {
		return 0, err
	}
	stats := r.mdl.PartialStats(r.params, batchOf(sp), nil)
	return r.mdl.Predict(stats), nil
}

// batchOf wraps one feature vector as a single-row batch.
func batchOf(x vec.Sparse) model.Batch {
	return model.Batch{Rows: []vec.Sparse{x}, Labels: []float64{0}}
}

// Accuracy evaluates classification accuracy over a dataset.
func (r *Result) Accuracy(ds *Dataset) float64 {
	return core.Accuracy(r.mdl, r.params, ds.ds)
}

// Weights returns the trained parameters: Weights()[0] is the linear
// weight vector; factorization machines expose factor rows 1..F and
// multinomial models one row per class.
func (r *Result) Weights() [][]float64 {
	out := make([][]float64, len(r.params.W))
	for i := range r.params.W {
		out[i] = append([]float64(nil), r.params.W[i]...)
	}
	return out
}
