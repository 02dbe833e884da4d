package core

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
)

// StragglerSpec injects stragglers into the modeled execution (§IV-B).
// Straggler injection lives in the shared round runtime; this alias
// keeps the engine's config surface unchanged. Level is the paper's
// StragglerLevel (SL1 ⇒ 2× total time, SL5 ⇒ 6×).
type StragglerSpec = driver.StragglerSpec

// Config configures a ColumnSGD training run.
type Config struct {
	// Workers is K.
	Workers int
	// Backup is S in S-backup computation; 0 disables replication.
	// Workers must be divisible by S+1.
	Backup int
	// KillStragglers makes the master permanently stop querying workers
	// it detected as recoverable stragglers (footnote 6 of the paper).
	// Only meaningful with Backup > 0.
	KillStragglers bool
	// ModelName/ModelArg select the model (see model.New).
	ModelName string
	ModelArg  int
	// Opt configures the optimizer replicated on every partition.
	Opt opt.Config
	// BatchSize is B.
	BatchSize int
	// BlockSize is the loading block size (Algorithm 4).
	BlockSize int
	// Scheme selects column partitioning: "range" or "roundrobin".
	Scheme string
	// Access selects the data-access pattern: "minibatch" (default, the
	// two-phase index of §IV-A) or "epoch" (sequential block access with
	// a per-epoch shuffle, the pattern of MXNet/Petuum/TensorFlow that
	// §IV-A contrasts against). Under epoch access BatchSize is ignored;
	// each iteration processes one whole block.
	Access string
	// Seed drives sampling, initialization, and straggler choice.
	Seed int64
	// ComputeParallelism sizes each worker's deterministic compute pool
	// (goroutines per worker for the statistics/gradient hot loop).
	// 0 means GOMAXPROCS; 1 disables intra-worker parallelism. The model
	// is bit-identical for every value — see internal/par.
	ComputeParallelism int
	// Net prices communication and compute.
	Net simnet.Model
	// Stragglers optionally injects stragglers.
	Stragglers StragglerSpec
	// EvalEvery computes the full training loss every n iterations
	// (0 ⇒ record the mini-batch loss each iteration instead).
	EvalEvery int
	// Pipeline overlaps iteration t+1's statistics fan-out with
	// iteration t's update application: each worker's next-round
	// ComputeStats call is chained immediately behind its update, with
	// no cross-worker barrier in between. Batch indices derive from the
	// iteration seed, not the model, and per-worker call order is
	// unchanged, so results are bit-identical to the unpipelined
	// schedule (enforced by the golden-determinism and chaos suites).
	Pipeline bool
	// Staleness switches Run from BSP to bounded-staleness (SSP)
	// execution: each worker loops at its own pace, admitted to
	// iteration t only while it is at most Staleness iterations ahead
	// of the slowest worker (internal/ssp). 0 is exact BSP. SSP is
	// incompatible with Backup (backup groups need the synchronous
	// aggregate to pick the fastest replica) and with Pipeline (SSP
	// subsumes it: every worker free-runs). EvalEvery is ignored under
	// SSP — a mid-run full evaluation would re-serialize the
	// asynchronous schedule — so the mini-batch loss is recorded each
	// iteration instead.
	Staleness int
	// StalenessSeed selects the deterministic staleness schedule each
	// worker replays: how many iterations stale the aggregate it reads
	// before iteration t is, in [0, Staleness]. Seed 0 is the max-slack
	// schedule (always Staleness stale — the worst case the bound
	// admits); a nonzero seed draws per-(worker, iteration) jitter.
	// Runs with the same seed are bit-identical (schedule replay).
	StalenessSeed int64
	// Precision selects the workers' numeric width: "f64" (default) or
	// "f32". Under f32 each worker holds its model partition, optimizer
	// state, and row values in float32 and runs the float32 kernels;
	// statistics cross the protocol widened to float64 (exactly), so
	// message shapes, the master's aggregation, and all reported metrics
	// keep their f64 form. The model must provide float32 kernels
	// (model.Kernel32 — all built-ins do). f32 runs are deterministic
	// and replay-stable at any ComputeParallelism, like f64 ones; they
	// differ from f64 runs by bounded rounding, gated by the
	// differential harness in precision_test.go.
	Precision string
	// Membership is an elastic-membership schedule ("leave@3:1,join@6:4"
	// — see membership.Parse), applied at round barriers by Run. Requires
	// an ElasticProvider (membership.NewPool). On each event round the
	// master reconciles the slot→node assignment and migrates the
	// affected column partitions live: a graceful leave ships the slot's
	// model and optimizer state to the new host (bit-identical resume), a
	// crash reinitializes the partition from the seed (§X recovery).
	// Incompatible with Backup — the replica-group layout assumes the
	// fixed fleet. Empty disables elasticity.
	Membership string
	// Solver selects the master-side update rule (see internal/opt):
	// "sgd" (default — one optimizer step per statistics exchange, the
	// classic round), "local" (each worker runs LocalSteps local
	// optimizer steps per exchange, refreshing only its own statistics
	// contribution between steps), or "lbfgs" (the master runs
	// limited-memory BFGS over gathered partial dot products, with a
	// deterministic line search priced as one extra statistics message).
	// L-BFGS rounds are full-batch and rewire the exchange entirely, so
	// "lbfgs" rejects Backup, Pipeline, Staleness, Membership, f32
	// precision, epoch access, non-linear-margin models (fm), L1/L2
	// regularization (the line-search loss cannot see the regularizer),
	// and non-SGD optimizers (the curvature history replaces their
	// state).
	Solver string
	// LocalSteps is K for the "local" solver (0 means the default 4;
	// K = 1 is exactly the classic round). Distinct from the rowsgd
	// baselines' same-named knob, which tunes MLlib*'s local-training
	// emulation.
	LocalSteps int
	// LBFGSMemory is m, the curvature-pair history of the "lbfgs"
	// solver (0 means the default 8).
	LBFGSMemory int
}

// Precision values for Config.Precision.
const (
	PrecisionF64 = "f64"
	PrecisionF32 = "f32"
)

func (c *Config) normalize() error {
	if c.Workers <= 0 {
		return fmt.Errorf("core: config needs positive Workers")
	}
	if c.Backup < 0 {
		return fmt.Errorf("core: Backup must be ≥ 0")
	}
	if c.ComputeParallelism < 0 {
		return fmt.Errorf("core: ComputeParallelism must be ≥ 0")
	}
	if c.Backup > 0 && c.Workers%(c.Backup+1) != 0 {
		return fmt.Errorf("core: Workers (%d) must be divisible by Backup+1 (%d)", c.Workers, c.Backup+1)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("core: config needs positive BatchSize")
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1024
	}
	if c.ModelName == "" {
		c.ModelName = "lr"
	}
	if c.Scheme == "" {
		c.Scheme = "roundrobin"
	}
	switch c.Access {
	case "", "minibatch", "epoch":
	default:
		return fmt.Errorf("core: unknown access mode %q", c.Access)
	}
	if c.Net.Name == "" {
		c.Net = simnet.Cluster1().WithWorkers(c.Workers)
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	switch c.Stragglers.Mode {
	case "", "none", "random", "fixed":
	default:
		return fmt.Errorf("core: unknown straggler mode %q", c.Stragglers.Mode)
	}
	if c.Staleness < 0 {
		return fmt.Errorf("core: Staleness must be ≥ 0")
	}
	if c.Staleness > 0 && c.Backup > 0 {
		return fmt.Errorf("core: Staleness and Backup are incompatible (backup groups need the synchronous aggregate)")
	}
	if c.Staleness > 0 && c.Pipeline {
		return fmt.Errorf("core: Pipeline is a BSP overlap; SSP (Staleness > 0) subsumes it")
	}
	switch c.Precision {
	case "", PrecisionF64, PrecisionF32:
	default:
		return fmt.Errorf("core: unknown precision %q (want %q or %q)", c.Precision, PrecisionF64, PrecisionF32)
	}
	if c.Precision == PrecisionF32 {
		m, err := model.New(c.ModelName, c.ModelArg)
		if err != nil {
			return err
		}
		if _, ok := model.Kernel32Of(m); !ok {
			return fmt.Errorf("core: model %s has no float32 kernels; Precision %q needs model.Kernel32", m.Name(), PrecisionF32)
		}
	}
	if c.Membership != "" {
		if c.Backup > 0 {
			return fmt.Errorf("core: Membership and Backup are incompatible (replica groups assume the fixed fleet)")
		}
		sched, err := membership.Parse(c.Membership)
		if err != nil {
			return err
		}
		if err := sched.Validate(c.Workers); err != nil {
			return err
		}
	}
	sc, err := opt.SolverConfig{Name: c.Solver, LocalSteps: c.LocalSteps, LBFGSMemory: c.LBFGSMemory}.Normalized()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.Solver, c.LocalSteps, c.LBFGSMemory = sc.Name, sc.LocalSteps, sc.LBFGSMemory
	if c.Solver == opt.SolverLBFGS {
		// L-BFGS replaces the whole round shape; every feature whose
		// math assumes the per-batch statistics exchange is rejected
		// rather than silently mis-composed.
		switch {
		case c.Backup > 0:
			return fmt.Errorf("core: solver lbfgs is incompatible with Backup (full-batch rounds have no replica race to win)")
		case c.Pipeline:
			return fmt.Errorf("core: solver lbfgs is incompatible with Pipeline (rounds are sequential gather/solve/apply phases)")
		case c.Staleness > 0:
			return fmt.Errorf("core: solver lbfgs is incompatible with Staleness (curvature pairs need the synchronous iterate)")
		case c.Membership != "":
			return fmt.Errorf("core: solver lbfgs is incompatible with Membership (migrating a partition would orphan its curvature history)")
		case c.Precision == PrecisionF32:
			return fmt.Errorf("core: solver lbfgs needs f64 precision (curvature dot products are rounding-sensitive)")
		case c.Access == "epoch":
			return fmt.Errorf("core: solver lbfgs is full-batch; epoch access does not apply")
		case c.ModelName == "fm":
			return fmt.Errorf("core: solver lbfgs needs linear-margin statistics; model fm is quadratic in its parameters")
		case c.Opt.L1 > 0 || c.Opt.L2 > 0:
			return fmt.Errorf("core: solver lbfgs is incompatible with L1/L2 regularization (the line-search loss cannot see the regularizer)")
		case c.Opt.Algo != "" && c.Opt.Algo != "sgd":
			return fmt.Errorf("core: solver lbfgs replaces the optimizer; Opt.Algo %q does not compose", c.Opt.Algo)
		}
	}
	return nil
}

// Engine is the ColumnSGD master (Algorithm 3). It owns no model state:
// it schedules the workers, aggregates statistics, and prices iterations.
type Engine struct {
	cfg     Config
	prov    Provider
	clients []cluster.Client
	mdl     model.Model
	scheme  partition.Scheme

	// Exactly one data source is retained for worker-failure recovery:
	// the in-memory dataset, or the path of a streamed LibSVM file.
	ds          *dataset.Dataset
	srcPath     string
	srcFeatures int

	numBlocks int
	numRows   int
	totalNNZ  int64
	dataBytes int64
	live      []bool
	// partOwners[p] lists the workers holding partition p (S+1 replicas
	// under backup).
	partOwners [][]int
	// workerParts[w] lists the partitions worker w holds.
	workerParts [][]int

	rng   *rand.Rand
	iter  int64
	trace *metrics.Trace

	// drv executes the round plan: fan-out, retry-with-recovery,
	// traffic accounting, and the unified fault-tolerance counters.
	drv *driver.Driver
	// pending is the in-flight pipelined prefetch of the next
	// iteration's statistics (nil when Pipeline is off or nothing is in
	// flight).
	pending *pendingStats
	// statsScratch recycles one step's StatsReply array (and, through
	// the zero-copy decode contract, each reply's Stats capacity) into
	// the next fan-out. It is handed out by grabStatsReplies and put
	// back only after aggregate has fully consumed the replies, so a
	// prefetch writing into the recycled array can never race a reader.
	statsScratch []StatsReply
	// lastStep suppresses the prefetch when Run knows no further
	// iteration follows: a trailing prefetch would put extra messages on
	// every link and shift the deterministic per-link fault/traffic
	// schedule relative to an unpipelined run.
	lastStep bool

	// Elastic membership (nil/zero when Config.Membership is empty):
	// ctl reconciles the slot→node assignment against the schedule, pool
	// mutates the fleet and rehosts slots, and migPhases/migExtra hold a
	// completed migration's priced cost until the next iteration's trace
	// record claims it.
	ctl       *membership.Controller
	pool      membership.NodePool
	migPhases []simnet.Phase
	migExtra  time.Duration

	// solver decides the round shape (internal/opt); plan caches its
	// Plan() so the hot loop never re-asks.
	solver opt.Solver
	plan   opt.RoundPlan
	// lb is the master-side L-BFGS state machine when the solver is
	// "lbfgs" (nil otherwise).
	lb *opt.LBFGS
	// lastDelta is the most recent local-update round's summed
	// worker-delta vector (see LastLocalDelta).
	lastDelta []float64
}

// Retries returns how many task-level retries (transient call failures
// relaunched on the same worker) the master has performed.
func (e *Engine) Retries() int64 { return e.drv.Retries() }

// Restarts returns how many worker restarts (ErrWorkerDown recoveries
// with data reload and model-partition reinitialization) the master has
// performed.
func (e *Engine) Restarts() int64 { return e.drv.Restarts() }

// NewEngine validates the config and prepares the master.
func NewEngine(cfg Config, prov Provider) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	mdl, err := model.New(cfg.ModelName, cfg.ModelArg)
	if err != nil {
		return nil, err
	}
	if _, err := opt.New(cfg.Opt); err != nil {
		return nil, err
	}
	clients := prov.Clients()
	if len(clients) != cfg.Workers {
		return nil, fmt.Errorf("core: provider has %d workers, config says %d", len(clients), cfg.Workers)
	}
	sol, err := opt.NewSolver(opt.SolverConfig{Name: cfg.Solver, LocalSteps: cfg.LocalSteps, LBFGSMemory: cfg.LBFGSMemory})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{
		cfg:     cfg,
		prov:    prov,
		clients: clients,
		mdl:     mdl,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		live:    make([]bool, cfg.Workers),
		solver:  sol,
		plan:    sol.Plan(),
	}
	if lb, ok := sol.(*opt.LBFGS); ok {
		e.lb = lb
	}
	// The driver holds the provider's clients slice: a restart swaps
	// the failed worker's client in place and the driver re-resolves it
	// per attempt. Recovery follows the paper's §X path (restart,
	// reload, reinitialize the partition), and each transient retry is
	// charged one scheduling overhead, as before.
	e.drv = driver.New(clients, driver.Options{
		RetryExtra: cfg.Net.SchedulingOverhead,
		Recover:    e.recoverWorker,
	})
	for i := range e.live {
		e.live[i] = true
	}
	if cfg.Membership != "" {
		ep, ok := prov.(ElasticProvider)
		if !ok || ep.NodePool() == nil {
			return nil, fmt.Errorf("core: Membership needs an elastic provider (see membership.NewPool)")
		}
		sched, err := membership.Parse(cfg.Membership)
		if err != nil {
			return nil, err
		}
		e.pool = ep.NodePool()
		ctl, err := membership.NewController(cfg.Workers, sched, e.pool)
		if err != nil {
			return nil, err
		}
		e.ctl = ctl
	}
	// Group layout: with S-backup, workers are divided into K/(S+1)
	// groups; group g's workers each hold partitions g(S+1)..g(S+1)+S.
	e.partOwners = make([][]int, cfg.Workers)
	e.workerParts = make([][]int, cfg.Workers)
	span := cfg.Backup + 1
	for w := 0; w < cfg.Workers; w++ {
		g := w / span
		for s := 0; s < span; s++ {
			p := g*span + s
			e.workerParts[w] = append(e.workerParts[w], p)
			e.partOwners[p] = append(e.partOwners[p], w)
		}
	}
	return e, nil
}

// Trace returns the run's metrics trace (nil before Load).
func (e *Engine) Trace() *metrics.Trace { return e.trace }

// Scheme returns the column partitioning in use (nil before Load).
func (e *Engine) Scheme() partition.Scheme { return e.scheme }

// ShardAssignment reports the current slot→node placement and the
// membership epoch (events applied so far). ok is false on
// fixed-membership engines, which have no controller to ask.
func (e *Engine) ShardAssignment() (hosts []int, epoch int64, ok bool) {
	if e.ctl == nil {
		return nil, 0, false
	}
	return e.ctl.Assignment(), e.ctl.Epoch(), true
}

// Iter returns the number of completed iterations.
func (e *Engine) Iter() int64 { return e.iter }

// LiveWorkers returns the indices of workers the master still queries.
func (e *Engine) LiveWorkers() []int {
	var out []int
	for w, ok := range e.live {
		if ok {
			out = append(out, w)
		}
	}
	return out
}

func (e *Engine) newScheme(m int) (partition.Scheme, error) {
	switch e.cfg.Scheme {
	case "range":
		return partition.NewRange(m, e.cfg.Workers)
	case "roundrobin":
		return partition.NewRoundRobin(m, e.cfg.Workers)
	case "hash":
		return partition.NewHash(m, e.cfg.Workers)
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", e.cfg.Scheme)
	}
}

// Load runs initModel + block-based column dispatching (Algorithms 3–4)
// over an in-memory dataset and records the modeled loading time.
func (e *Engine) Load(ds *dataset.Dataset) error {
	if ds.N() == 0 {
		return fmt.Errorf("core: empty dataset")
	}
	e.ds = ds
	e.srcPath = ""
	lo := 0
	next := func() (*dataset.Block, error) {
		if lo >= ds.N() {
			return nil, nil
		}
		hi := lo + e.cfg.BlockSize
		if hi > ds.N() {
			hi = ds.N()
		}
		blk := &dataset.Block{ID: lo / e.cfg.BlockSize, Points: ds.Points[lo:hi]}
		lo = hi
		return blk, nil
	}
	return e.loadFrom(next, ds.NumFeatures)
}

// LoadFile streams a LibSVM file through the block queue without ever
// materializing the dataset at the master — the paper's actual loading
// path, where row-major data lives in distributed storage. features is
// the model dimension m (fixed a priori, per the paper's setup).
func (e *Engine) LoadFile(path string, features int) error {
	if features <= 0 {
		return fmt.Errorf("core: LoadFile needs the feature dimension")
	}
	br, err := dataset.OpenBlockFile(path, e.cfg.BlockSize, features)
	if err != nil {
		return err
	}
	defer br.Close()
	e.ds = nil
	e.srcPath = path
	e.srcFeatures = features
	return e.loadFrom(br.Next, features)
}

// loadFrom is the shared loading path: init workers, stream blocks
// through block-based column dispatching, finalize, and price the load.
func (e *Engine) loadFrom(next func() (*dataset.Block, error), features int) error {
	scheme, err := e.newScheme(features)
	if err != nil {
		return err
	}
	e.scheme = scheme

	if err := e.initWorkers(e.allWorkers()); err != nil {
		return err
	}

	stats, err := e.dispatchLoads(next, scheme)
	if err != nil {
		return err
	}
	if stats.Rows == 0 {
		return fmt.Errorf("core: data source is empty")
	}
	e.numBlocks = stats.Blocks
	e.numRows = stats.Rows
	e.totalNNZ = stats.NNZ
	e.dataBytes = int64(stats.Rows)*8 + stats.NNZ*12
	e.trace = &metrics.Trace{
		System:  e.systemName(),
		Dataset: fmt.Sprintf("n%d-m%d", stats.Rows, features),
		ModelID: e.mdl.Name(),
	}

	if _, err := e.drv.Gather(e.allWorkers(), nil, func(int, int) driver.Call {
		return driver.Call{Method: MethodLoadDone, Args: &LoadDoneArgs{}}
	}); err != nil {
		return err
	}

	// Modeled load time: the row-to-column shuffle moves stats.Bytes
	// (×replication) across K parallel links, having read the whole
	// dataset once, spread over K readers.
	repl := int64(e.cfg.Backup + 1)
	e.trace.LoadCost = e.cfg.Net.LoadTime(stats.Messages*repl, stats.Bytes*repl, e.cfg.Workers, stats.NNZ/int64(e.cfg.Workers))
	e.recordMemory()
	return nil
}

func (e *Engine) systemName() string {
	name := "ColumnSGD"
	if e.cfg.Backup > 0 {
		name = fmt.Sprintf("ColumnSGD-backup%d", e.cfg.Backup)
	}
	if e.cfg.Staleness > 0 {
		name += fmt.Sprintf("-ssp%d", e.cfg.Staleness)
	}
	if e.cfg.Stragglers.Mode != "" && e.cfg.Stragglers.Mode != "none" {
		name += fmt.Sprintf("-SL%g", e.cfg.Stragglers.Level)
	}
	// Classic rounds ("sgd", and "local" at K=1 which is the identical
	// code path) keep the unsuffixed name so existing goldens hold.
	if e.cfg.Solver == opt.SolverLocal && e.cfg.LocalSteps > 1 {
		name += fmt.Sprintf("-local%d", e.cfg.LocalSteps)
	}
	if e.cfg.Solver == opt.SolverLBFGS {
		name += fmt.Sprintf("-lbfgs%d", e.cfg.LBFGSMemory)
	}
	return name
}

func (e *Engine) allWorkers() []int {
	out := make([]int, e.cfg.Workers)
	for i := range out {
		out[i] = i
	}
	return out
}

// initArgs builds worker w's model-partition initialization request.
func (e *Engine) initArgs(w int) *InitArgs {
	widths := make([]int, len(e.workerParts[w]))
	for i, p := range e.workerParts[w] {
		widths[i] = e.scheme.PartSize(p)
	}
	return &InitArgs{
		Worker:      w,
		Partitions:  e.workerParts[w],
		Widths:      widths,
		ModelName:   e.cfg.ModelName,
		ModelArg:    e.cfg.ModelArg,
		Opt:         e.cfg.Opt,
		Seed:        e.cfg.Seed,
		Parallelism: e.cfg.ComputeParallelism,
		Precision:   e.cfg.Precision,
	}
}

// initWorkers initializes the listed workers' model partitions.
func (e *Engine) initWorkers(workers []int) error {
	for _, w := range workers {
		if err := e.drv.Call(w, driver.Call{Method: MethodInit, Args: e.initArgs(w)}, nil, nil); err != nil {
			return fmt.Errorf("core: init worker %d: %w", w, err)
		}
	}
	return nil
}

// stragglerFor picks this iteration's injected straggler (-1 for none).
func (e *Engine) stragglerFor() int {
	return e.cfg.Stragglers.Pick(e.LiveWorkers(), e.rng)
}

// workerReply pairs a worker with its stats reply and modeled time.
type workerReply struct {
	worker int
	reply  StatsReply
	t      time.Duration
}

// IterStats summarizes one completed iteration.
type IterStats struct {
	Loss float64
	Cost simnet.IterationCost
}

// statsArgs builds the iteration's batch plan broadcast (Algorithm 3
// line 5). The plan depends only on the seed and iteration number —
// never on model state — which is what makes the pipelined prefetch
// bit-identical.
func (e *Engine) statsArgs(iter int64) *StatsArgs {
	epoch := e.cfg.Access == "epoch"
	var epochSeed int64
	if epoch {
		// Reshuffle the block order once per pass over the data.
		epochSeed = e.cfg.Seed + iter/int64(e.numBlocks)
	}
	return &StatsArgs{Iter: e.cfg.Seed + iter, BatchSize: e.cfg.BatchSize, Epoch: epoch, EpochSeed: epochSeed}
}

// pendingStats is an in-flight pipelined prefetch: iteration iter's
// ComputeStats fan-out, launched chained behind iteration iter-1's
// per-worker update calls. Each worker observes exactly the message
// order a sequential schedule would produce.
type pendingStats struct {
	iter    int64
	lives   []int
	replies []StatsReply
	traffic driver.Traffic
	p       *driver.Pending
}

// takePending claims a prefetch matching the current iteration. A stale
// prefetch (a failed Step being retried, or state imported since it was
// launched) is drained and discarded so its calls cannot interleave
// with the fresh fan-out.
func (e *Engine) takePending() *pendingStats {
	pend := e.pending
	if pend == nil {
		return nil
	}
	e.pending = nil
	if pend.iter != e.iter {
		_, _ = pend.p.Await()
		return nil
	}
	return pend
}

// quiesce drains an in-flight prefetch without discarding it, so
// read-side traffic (evaluation, export) never interleaves with
// prefetch calls and fault counters stay replay-deterministic.
func (e *Engine) quiesce() {
	if e.pending != nil {
		_, _ = e.pending.p.Await()
	}
}

// grabStatsReplies takes the recycled reply array (or allocates one).
// The structs keep their Stats slices from the previous step; the
// transports decode into that capacity in place, so steady-state
// statistics gathers allocate nothing.
func (e *Engine) grabStatsReplies(n int) []StatsReply {
	s := e.statsScratch
	e.statsScratch = nil
	if cap(s) < n {
		return make([]StatsReply, n)
	}
	return s[:n]
}

// putStatsReplies returns a reply array for recycling. Callers must
// have finished every read of the replies' Stats slices: the next
// fan-out will overwrite them in place, possibly from driver
// goroutines.
func (e *Engine) putStatsReplies(s []StatsReply) { e.statsScratch = s }

// Step runs one SGD iteration (Algorithm 3 lines 5–8) and records it in
// the trace. The driver executes the round plan; Step owns only the
// plan itself and the modeled-time bookkeeping.
func (e *Engine) Step() (IterStats, error) {
	if e.trace == nil {
		return IterStats{}, fmt.Errorf("core: Load must run before Step")
	}
	if e.cfg.Staleness > 0 {
		return IterStats{}, fmt.Errorf("core: Step is BSP-only; Run drives bounded-staleness execution")
	}
	if e.plan.FullBatch {
		// L-BFGS rounds replace the batch exchange entirely.
		return e.stepLBFGS()
	}
	if err := e.maybeRebalance(); err != nil {
		return IterStats{}, err
	}
	wallStart := time.Now()
	straggler := e.stragglerFor()

	// Phase 1: computeStatistics, fanned out to all live workers
	// (Algorithm 3 line 5) — or already in flight from the pipelined
	// prefetch. Aggregation order stays deterministic: replies are kept
	// in worker order either way.
	var (
		lives        []int
		statsReplies []StatsReply
		statsTraffic *driver.Traffic
	)
	// A migration completed at this round barrier charges its modeled
	// reload/transfer time to this iteration, like recovery time.
	extraRecovery := e.takeMigrationExtra()
	if pend := e.takePending(); pend != nil {
		extra, err := pend.p.Await()
		if err != nil {
			e.drv.Publish(e.trace)
			return IterStats{}, err
		}
		lives, statsReplies, statsTraffic = pend.lives, pend.replies, &pend.traffic
		extraRecovery += extra
	} else {
		lives = e.LiveWorkers()
		statsReplies = e.grabStatsReplies(len(lives))
		statsTraffic = &driver.Traffic{}
		args := e.statsArgs(e.iter)
		extra, err := e.drv.Gather(lives, statsTraffic, func(slot, w int) driver.Call {
			c := driver.Call{Method: MethodComputeStats, Args: args, Reply: &statsReplies[slot], Retry: true}
			if w == straggler {
				// A wall-clock straggler holds its slot for real host
				// time; modeled Level stretching is applied separately
				// below. The pipelined prefetch launches before the
				// victim is drawn, so Wall applies only here.
				c.Delay = e.cfg.Stragglers.Wall
			}
			return c
		})
		if err != nil {
			e.drv.Publish(e.trace)
			return IterStats{}, err
		}
		extraRecovery += extra
	}

	// Model each worker's statistics compute time, stretching the
	// injected straggler's.
	replies := make([]workerReply, len(lives))
	for i, w := range lives {
		t := time.Duration(float64(statsReplies[i].NNZ) / e.cfg.Net.ComputeNNZPerSec * float64(time.Second))
		if w == straggler {
			t = e.cfg.Stragglers.Stretch(t)
		}
		replies[i] = workerReply{worker: w, reply: statsReplies[i], t: t}
	}

	// Aggregate (reduceStatistics): under backup, use the fastest replica
	// of each group; without backup, every live worker contributes.
	agg, statsCompute, err := e.aggregate(replies, straggler)
	if err != nil {
		return IterStats{}, err
	}
	// aggregate summed every reply's statistics into the fresh agg
	// slice, and the workerReply copies above are read only for their
	// NNZ counters from here on — the reply array is free to recycle
	// into the next fan-out (the prefetch below, or the next Step).
	e.putStatsReplies(statsReplies)

	// Phase 2: broadcast aggregated statistics; workers compute
	// gradients and update their model partitions (lines 7–8). The
	// solver decides the round shape: K = 1 keeps the classic
	// UpdateArgs frame bit-for-bit; K > 1 switches to the multi-step
	// frame whose reply carries the accumulated local delta.
	lives = e.LiveWorkers() // backup may have killed the straggler
	localSteps := e.plan.LocalSteps
	var (
		updReplies []UpdateReply
		solReplies []SolverUpdateReply
		mkUpdate   func(slot, w int) driver.Call
	)
	updTraffic := &driver.Traffic{}
	updArgs := e.statsArgs(e.iter)
	if localSteps > 1 {
		solReplies = make([]SolverUpdateReply, len(lives))
		mkUpdate = func(slot, _ int) driver.Call {
			return driver.Call{
				Method: MethodSolverUpdate,
				Args: &SolverUpdateArgs{Version: solverFrameVersion, Iter: updArgs.Iter,
					BatchSize: updArgs.BatchSize, Epoch: updArgs.Epoch,
					EpochSeed: updArgs.EpochSeed, LocalSteps: localSteps, Stats: agg},
				Reply: &solReplies[slot],
				Retry: true,
			}
		}
	} else {
		updReplies = make([]UpdateReply, len(lives))
		mkUpdate = func(slot, _ int) driver.Call {
			return driver.Call{
				Method: MethodUpdate,
				Args: &UpdateArgs{Iter: updArgs.Iter, BatchSize: updArgs.BatchSize,
					Epoch: updArgs.Epoch, EpochSeed: updArgs.EpochSeed, Stats: agg},
				Reply: &updReplies[slot],
				Retry: true,
			}
		}
	}
	upd := e.drv.Start(lives, updTraffic, mkUpdate, nil)
	// Pipelined fan-out: launch the next iteration's statistics calls
	// chained per worker behind this update broadcast. The batch plan
	// is model-independent, so computing it (and transmitting it) early
	// changes nothing about the result — only the wall-clock barrier.
	if e.cfg.Pipeline && !e.lastStep {
		np := &pendingStats{iter: e.iter + 1, lives: lives, replies: e.grabStatsReplies(len(lives))}
		nextArgs := e.statsArgs(e.iter + 1)
		np.p = e.drv.Start(lives, &np.traffic, func(slot, _ int) driver.Call {
			return driver.Call{Method: MethodComputeStats, Args: nextArgs, Reply: &np.replies[slot], Retry: true}
		}, upd)
		e.pending = np
	}
	updExtra, err := upd.Await()
	if err != nil {
		e.drv.Publish(e.trace)
		return IterStats{}, err
	}
	extraRecovery += updExtra

	var loss float64
	gotLoss := false
	var updCompute time.Duration
	for i, w := range lives {
		var wLoss float64
		var wNNZ int64
		if localSteps > 1 {
			wLoss, wNNZ = solReplies[i].Loss, solReplies[i].NNZ
		} else {
			wLoss, wNNZ = updReplies[i].Loss, updReplies[i].NNZ
		}
		t := time.Duration(float64(wNNZ) / e.cfg.Net.ComputeNNZPerSec * float64(time.Second))
		if w == straggler {
			t = e.cfg.Stragglers.Stretch(t)
		}
		if t > updCompute {
			updCompute = t
		}
		if !gotLoss {
			loss, gotLoss = wLoss, true
		}
	}
	if localSteps > 1 {
		if err := e.sumLocalDeltas(lives, solReplies, len(agg)); err != nil {
			return IterStats{}, err
		}
	}

	cost := simnet.IterationCost{
		Sched: e.cfg.Net.SchedulingOverhead,
		// Compute: statistics phase (critical path through the group
		// structure) plus update phase (max over live workers).
		Compute: statsCompute + updCompute + extraRecovery,
	}
	phases := append(e.takeMigrationPhases(),
		statsTraffic.Phase("gather-stats", 1),
		updTraffic.Phase("bcast-stats", 1),
	)
	net, err := costmodel.NetworkTime(costmodel.Measured(phases), e.cfg.Net)
	if err != nil {
		return IterStats{}, err
	}
	cost.Network = net

	recLoss := loss
	if e.cfg.EvalEvery > 0 {
		if int(e.iter)%e.cfg.EvalEvery == 0 {
			full, err := e.FullLoss()
			if err != nil {
				return IterStats{}, err
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
		MaxWorkerNNZ: maxNNZ(replies),
		Wall:         time.Since(wallStart),
	})
	e.drv.Publish(e.trace)
	e.iter++
	return IterStats{Loss: loss, Cost: cost}, nil
}

// sumLocalDeltas folds one replica's accumulated local delta per backup
// group (replicas hold the same partitions, so their deltas are
// identical) into e.lastDelta.
func (e *Engine) sumLocalDeltas(lives []int, replies []SolverUpdateReply, need int) error {
	span := e.cfg.Backup + 1
	if cap(e.lastDelta) < need {
		e.lastDelta = make([]float64, need)
	}
	delta := e.lastDelta[:need]
	for i := range delta {
		delta[i] = 0
	}
	seen := make([]bool, e.cfg.Workers/span)
	for i, w := range lives {
		g := w / span
		if seen[g] {
			continue
		}
		seen[g] = true
		d := replies[i].Delta
		if len(d) != need {
			return fmt.Errorf("core: worker %d returned %d delta values, want %d", w, len(d), need)
		}
		for j, v := range d {
			delta[j] += v
		}
	}
	e.lastDelta = delta
	return nil
}

// LastLocalDelta returns the summed worker statistics delta (own_K −
// own_0, one replica per group) of the most recent local-update BSP
// round; nil before the first such round and under SSP, where each
// worker folds its own delta at its own pace.
func (e *Engine) LastLocalDelta() []float64 { return e.lastDelta }

func maxNNZ(replies []workerReply) int64 {
	var m int64
	for _, r := range replies {
		if r.reply.NNZ > m {
			m = r.reply.NNZ
		}
	}
	return m
}

func nanF() float64 {
	var z float64
	return 0 / z
}

// aggregate implements reduceStatistics. Without backup it sums every
// reply. With backup it sums, per group, the fastest replica's statistics
// (they are identical across replicas — verified in tests) and returns the
// critical-path compute time: max over groups of the fastest member, per
// the gradient-coding recovery argument of §IV-B. Detected stragglers are
// killed when configured.
func (e *Engine) aggregate(replies []workerReply, straggler int) ([]float64, time.Duration, error) {
	if len(replies) == 0 {
		return nil, 0, fmt.Errorf("core: no statistics replies")
	}
	agg := make([]float64, len(replies[0].reply.Stats))

	if e.cfg.Backup == 0 {
		var maxT time.Duration
		for _, r := range replies {
			if len(r.reply.Stats) != len(agg) {
				return nil, 0, fmt.Errorf("core: worker %d returned %d stats, want %d", r.worker, len(r.reply.Stats), len(agg))
			}
			for i, v := range r.reply.Stats {
				agg[i] += v
			}
			if r.t > maxT {
				maxT = r.t
			}
		}
		return agg, maxT, nil
	}

	span := e.cfg.Backup + 1
	groups := e.cfg.Workers / span
	best := make([]*workerReply, groups)
	for i := range replies {
		r := &replies[i]
		g := r.worker / span
		if best[g] == nil || r.t < best[g].t {
			best[g] = r
		}
	}
	var critical time.Duration
	for g := 0; g < groups; g++ {
		if best[g] == nil {
			return nil, 0, fmt.Errorf("core: group %d has no live replica", g)
		}
		if len(best[g].reply.Stats) != len(agg) {
			return nil, 0, fmt.Errorf("core: group %d stats length mismatch", g)
		}
		for i, v := range best[g].reply.Stats {
			agg[i] += v
		}
		if best[g].t > critical {
			critical = best[g].t
		}
	}
	// Kill recoverable stragglers: the master has the statistics it
	// needs, so a detected straggler whose group has another live
	// replica is dropped permanently (paper footnote 6).
	if e.cfg.KillStragglers && straggler >= 0 && e.live[straggler] {
		g := straggler / span
		if best[g] != nil && best[g].worker != straggler {
			e.live[straggler] = false
		}
	}
	return agg, critical, nil
}

// recoverWorker is the driver's Recover hook: restart a crashed worker
// and rebuild its state from the retained training data (paper §X:
// reload data, reinitialize the model partition, rely on SGD's
// robustness). It runs with the worker's call slot held, so every
// worker interaction goes through the Conn.
func (e *Engine) recoverWorker(w int, c driver.Conn) error {
	if err := e.prov.Restart(w); err != nil {
		return err
	}
	return e.reloadWorker(w, c, nil)
}

// reloadWorker rebuilds worker w's state through the held Conn: init,
// re-dispatch of its partitions from whichever source the job loaded,
// loadDone, and — when a migration frame is present — an exact state
// import that overwrites the freshly-initialized partitions.
func (e *Engine) reloadWorker(w int, c driver.Conn, frame []byte) error {
	if err := c.Call(MethodInit, e.initArgs(w), nil); err != nil {
		return fmt.Errorf("core: init worker %d: %w", w, err)
	}
	parts := make(map[int]bool, len(e.workerParts[w]))
	for _, p := range e.workerParts[w] {
		parts[p] = true
	}
	deliver := func(part int, ws *partition.Workset) error {
		if !parts[part] {
			return nil
		}
		return c.Call(MethodLoad, &LoadArgs{Partition: part, Workset: ws}, nil)
	}
	m0, b0 := e.clients[w].Messages(), e.clients[w].Bytes()
	if e.ds != nil {
		if _, _, err := partition.Dispatch(e.ds, e.scheme, e.cfg.BlockSize, deliver); err != nil {
			return err
		}
	} else {
		br, err := dataset.OpenBlockFile(e.srcPath, e.cfg.BlockSize, e.srcFeatures)
		if err != nil {
			return err
		}
		_, _, derr := partition.DispatchStream(br.Next, e.scheme, deliver)
		br.Close()
		if derr != nil {
			return derr
		}
	}
	if err := c.Call(MethodLoadDone, &LoadDoneArgs{}, nil); err != nil {
		return err
	}
	m1, b1 := e.clients[w].Messages(), e.clients[w].Bytes()
	// Modeled reload time: this worker re-reads and re-receives its
	// shard over a single link (the ≈23 s reload the paper measures in
	// Fig. 13(b), at their scale), charged to the call that found the
	// worker down.
	c.AddExtra(e.cfg.Net.LoadTime(m1-m0, b1-b0, 1, e.totalNNZ/int64(e.cfg.Workers)))
	if frame != nil {
		if err := c.Call(MethodImportState, &ImportStateArgs{Frame: frame}, nil); err != nil {
			return fmt.Errorf("core: import migrated state to worker %d: %w", w, err)
		}
	}
	return nil
}

// Run executes iters iterations and returns the trace. Any dangling
// pipelined prefetch is drained before returning, so counters and fault
// schedules observed after Run are deterministic. With Staleness > 0
// the run executes under the bounded-staleness engine instead of
// barriered Steps.
func (e *Engine) Run(iters int) (*metrics.Trace, error) {
	if e.cfg.Staleness > 0 {
		if e.ctl == nil {
			return e.runSSP(iters)
		}
		// Elastic SSP: split the run at membership-event rounds. Each
		// segment free-runs under the staleness bound; the rebalance is a
		// true barrier between segments, so a mid-job join/leave composes
		// with SSP without any worker observing a half-moved slot.
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
		e.lastStep = i == iters-1
		_, err := e.Step()
		e.lastStep = false
		if err != nil {
			e.quiesce()
			return e.trace, err
		}
	}
	e.quiesce()
	return e.trace, nil
}

// FullLoss evaluates the training loss over the entire dataset using the
// distributed statistics path (no model movement).
func (e *Engine) FullLoss() (float64, error) {
	agg, err := e.fullStats()
	if err != nil {
		return 0, err
	}
	// Any live worker can finalize: labels are shared.
	lives := e.LiveWorkers()
	if len(lives) == 0 {
		return 0, fmt.Errorf("core: no live workers")
	}
	var r EvalLossReply
	if err := e.drv.Call(lives[0], driver.Call{Method: MethodEvalLoss,
		Args: &EvalLossArgs{FromBlock: 0, ToBlock: e.numBlocks, Stats: agg}, Reply: &r}, nil, nil); err != nil {
		return 0, err
	}
	if r.Count == 0 {
		return 0, fmt.Errorf("core: evaluation covered no points")
	}
	return r.LossSum / float64(r.Count), nil
}

// FullAccuracy evaluates classification accuracy over the entire training
// set via the distributed statistics path — the model never moves.
func (e *Engine) FullAccuracy() (float64, error) {
	agg, err := e.fullStats()
	if err != nil {
		return 0, err
	}
	lives := e.LiveWorkers()
	if len(lives) == 0 {
		return 0, fmt.Errorf("core: no live workers")
	}
	var r EvalAccuracyReply
	if err := e.drv.Call(lives[0], driver.Call{Method: MethodEvalAccuracy,
		Args: &EvalAccuracyArgs{FromBlock: 0, ToBlock: e.numBlocks, Stats: agg}, Reply: &r}, nil, nil); err != nil {
		return 0, err
	}
	if r.Count == 0 {
		return 0, fmt.Errorf("core: accuracy evaluation covered no points")
	}
	return float64(r.Correct) / float64(r.Count), nil
}

// ImportModel scatters a full parameter block to the workers' partitions
// (warm starting / restoring a previously exported model). Optimizer
// state is reset on every partition.
func (e *Engine) ImportModel(full *model.Params) error {
	if e.scheme == nil {
		return fmt.Errorf("core: Load must run before ImportModel")
	}
	// A prefetch in flight computed statistics against the pre-import
	// model; drain and discard it so the next Step issues fresh calls.
	if pend := e.pending; pend != nil {
		e.pending = nil
		_, _ = pend.p.Await()
	}
	m := e.numFeatures()
	if full.Rows() != e.mdl.ParamRows() || full.Width() != m {
		return fmt.Errorf("core: import shape %dx%d, want %dx%d",
			full.Rows(), full.Width(), e.mdl.ParamRows(), m)
	}
	for p := 0; p < e.cfg.Workers; p++ {
		width := e.scheme.PartSize(p)
		w := make([][]float64, full.Rows())
		for row := range w {
			w[row] = make([]float64, width)
			for local := 0; local < width; local++ {
				w[row][local] = full.W[row][e.scheme.Global(p, int32(local))]
			}
		}
		for _, owner := range e.partOwners[p] {
			if !e.live[owner] {
				continue
			}
			if err := e.drv.Call(owner, driver.Call{Method: MethodSetParams,
				Args: &SetParamsArgs{Partition: p, W: w}}, nil, nil); err != nil {
				return fmt.Errorf("core: import partition %d to worker %d: %w", p, owner, err)
			}
		}
	}
	return nil
}

// fullStats aggregates complete statistics for every training point, one
// live replica per partition.
func (e *Engine) fullStats() ([]float64, error) {
	e.quiesce()
	var agg []float64
	// One reply across partitions: each response is summed into agg
	// before the next call, so the decoder can reuse its capacity.
	var r EvalReply
	for p := 0; p < e.cfg.Workers; p++ {
		owner := -1
		for _, w := range e.partOwners[p] {
			if e.live[w] {
				owner = w
				break
			}
		}
		if owner < 0 {
			return nil, fmt.Errorf("core: partition %d has no live owner", p)
		}
		if err := e.drv.Call(owner, driver.Call{Method: MethodEvalStats,
			Args: &EvalArgs{Partition: p, FromBlock: 0, ToBlock: e.numBlocks}, Reply: &r}, nil, nil); err != nil {
			return nil, err
		}
		if agg == nil {
			agg = make([]float64, len(r.Stats))
		}
		if len(r.Stats) != len(agg) {
			return nil, fmt.Errorf("core: partition %d returned %d stats, want %d", p, len(r.Stats), len(agg))
		}
		for i, v := range r.Stats {
			agg[i] += v
		}
	}
	return agg, nil
}

// ExportModel assembles the full model from the workers' partitions: one
// Params block of ParamRows × NumFeatures.
func (e *Engine) ExportModel() (*model.Params, error) {
	if e.scheme == nil {
		return nil, fmt.Errorf("core: Load must run before ExportModel")
	}
	e.quiesce()
	m := e.numFeatures()
	full := model.NewParams(e.mdl.ParamRows(), m)
	for p := 0; p < e.cfg.Workers; p++ {
		owner := -1
		for _, w := range e.partOwners[p] {
			if e.live[w] {
				owner = w
				break
			}
		}
		if owner < 0 {
			return nil, fmt.Errorf("core: partition %d has no live owner", p)
		}
		var r ParamsReply
		if err := e.drv.Call(owner, driver.Call{Method: MethodGetParams,
			Args: &ParamsArgs{Partition: p}, Reply: &r}, nil, nil); err != nil {
			return nil, err
		}
		for row := range r.W {
			for local, v := range r.W[row] {
				g := e.scheme.Global(p, int32(local))
				if g < 0 || int(g) >= m {
					return nil, fmt.Errorf("core: partition %d local %d maps out of range", p, local)
				}
				full.W[row][g] = v
			}
		}
	}
	return full, nil
}

// Model returns the model kernels in use (for prediction on exported
// parameters).
func (e *Engine) Model() model.Model { return e.mdl }

// InjectTaskFailure arms n transient task failures on a worker.
func (e *Engine) InjectTaskFailure(worker, n int) error {
	e.quiesce()
	return e.drv.Call(worker, driver.Call{Method: MethodFailNext, Args: &FailNextArgs{Calls: n}}, nil, nil)
}

// InjectWorkerFailure crashes a worker if the provider supports it.
func (e *Engine) InjectWorkerFailure(worker int) error {
	fi, ok := e.prov.(FailureInjector)
	if !ok {
		return fmt.Errorf("core: provider cannot inject failures")
	}
	e.quiesce()
	fi.Fail(worker)
	return nil
}

// recordMemory captures the Table I memory model from live state: the
// master holds only the statistics buffer (B·statsPerPoint); each worker
// holds its data shard, its model partition(s), and two batch-sized
// buffers.
func (e *Engine) recordMemory() {
	spp := int64(e.mdl.StatsPerPoint())
	e.trace.PeakMasterBytes = int64(e.cfg.BatchSize) * spp * 8
	var maxWorker int64
	repl := int64(e.cfg.Backup + 1)
	dataPerPart := e.dataBytes / int64(e.cfg.Workers)
	rows := int64(e.mdl.ParamRows())
	for w := 0; w < e.cfg.Workers; w++ {
		var modelBytes int64
		for _, p := range e.workerParts[w] {
			modelBytes += int64(e.scheme.PartSize(p)) * rows * 8
		}
		total := dataPerPart*repl + modelBytes + 2*int64(e.cfg.BatchSize)*spp*8
		if total > maxWorker {
			maxWorker = total
		}
	}
	e.trace.PeakWorkerBytes = maxWorker
}

// numFeatures returns the loaded model dimension.
func (e *Engine) numFeatures() int {
	if e.ds != nil {
		return e.ds.NumFeatures
	}
	return e.srcFeatures
}
