// Package diff is the differential correctness harness: it runs one
// seeded workload through the sequential reference (Algorithm 1), the
// ColumnSGD engine, and the four RowSGD baselines, optionally behind a
// chaos fault schedule, and returns comparable results (final full-data
// loss, exported weights, retry/restart counters, fault counters).
//
// The harness's invariants (asserted by the top-level chaos_test.go):
//
//	(a) a zero-fault chaos run is bit-identical to the plain transport;
//	(b) transient absorbed faults leave the final loss inside a tolerance
//	    band of the fault-free run, with nonzero retry/restart counters;
//	(c) unabsorbable faults surface as typed errors under a watchdog
//	    deadline — never hangs or silent divergence.
package diff

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"columnsgd/internal/chaos"
	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/dataset"
	"columnsgd/internal/membership"
	"columnsgd/internal/model"
	"columnsgd/internal/opt"
	"columnsgd/internal/rowsgd"
	"columnsgd/internal/wire"
)

// ErrDeadline marks a run that exceeded the watchdog deadline — the
// "never hangs" invariant turned into a typed, assertable error.
var ErrDeadline = errors.New("diff: watchdog deadline exceeded")

// Engines lists the five distributed engines the harness covers
// (ColumnSGD plus the paper's four RowSGD baselines, §V-A).
func Engines() []string {
	return []string{"columnsgd", "mllib", "mllib*", "petuum", "mxnet"}
}

// Workload is one seeded training job, identical across engines.
type Workload struct {
	// Dataset shape.
	N, Features, NNZPerRow, Classes int
	// Model ("lr", "svm", "mlr", "fm") and its argument (classes/rank).
	Model    string
	ModelArg int
	// Optimizer configuration shared by all engines.
	Opt opt.Config
	// Batch is the global batch size B; Iters the iteration count;
	// Workers the cluster size K.
	Batch, Iters, Workers int
	// Seed drives data generation, initialization, and sampling.
	Seed int64
	// Parallelism sizes each worker's deterministic compute pool
	// (internal/par); 0 means GOMAXPROCS. Bit-identical for every value —
	// the golden-determinism matrix asserts exactly that.
	Parallelism int
	// Codec selects the transport statistics codec ("wire", "wire-f32",
	// "wire-f16"); empty means the default lossless "wire". The lossy ones
	// trade bytes for quantization error (asserted by the accuracy suite).
	Codec string
	// Pipeline enables the ColumnSGD driver's pipelined fan-out
	// (prefetching iteration t+1's stats behind iteration t's update).
	// Bit-identical to the unpipelined schedule — the golden and chaos
	// matrices assert exactly that. Ignored by the RowSGD baselines.
	Pipeline bool
	// Staleness runs every engine under the bounded-staleness (SSP)
	// runtime with workers up to Staleness iterations apart; 0 keeps
	// synchronous BSP rounds. StalenessSeed selects the per-worker lag
	// schedule (0 = max slack). The async chaos matrix asserts that the
	// same fault schedule is absorbed under SSP and that replays are
	// bit-identical.
	Staleness     int
	StalenessSeed int64
	// Precision selects the workers' numeric width ("", "f64", "f32").
	// Under "f32" the worker hot path runs the float32 kernel twins;
	// statistics and exported weights stay float64 (widened exactly), so
	// results remain comparable — the precision suite asserts f32 runs
	// land within a tolerance band of their f64 goldens and keep every
	// determinism guarantee.
	Precision string
	// Membership schedules elastic cluster-membership events
	// ("leave@3:1,join@6:4,crash@9:0"): slots migrate between nodes at
	// round barriers while the job keeps running. Graceful events are
	// value-neutral — the rebalance matrix asserts bit-identity to a
	// fixed-membership golden — and crashes reinitialize the lost slot
	// from the seed. Works on every engine and composes with chaos specs.
	Membership string
	// Solver selects the master-side update rule for every engine
	// ("", "sgd", "local", "lbfgs"); LocalSteps and LBFGSMemory are its
	// knobs. "sgd" (and "local" with LocalSteps 1) is bit-identical to
	// the classic round, which the solver matrix asserts; "local" K>1
	// and "lbfgs" run the fewer-fatter-rounds shapes. Engines that
	// reject a combination (e.g. lbfgs on MLlib*) surface the config
	// error.
	Solver      string
	LocalSteps  int
	LBFGSMemory int
}

// codec parses the workload's codec selection.
func (w Workload) codec() (wire.Codec, error) {
	c, err := wire.ParseCodec(w.Codec)
	if err != nil {
		return wire.Codec{}, fmt.Errorf("diff: %w", err)
	}
	return c, nil
}

// Result is one engine run's comparable outcome.
type Result struct {
	Engine string
	// Loss is the final full-dataset training loss.
	Loss float64
	// Weights is the exported model, row-major.
	Weights [][]float64
	// Retries/Restarts are the engine's fault-tolerance counters.
	Retries, Restarts int64
	// Faults snapshots the injector (zero value for fault-free runs).
	Faults chaos.Snapshot
	// Schedule is the injected-event log for replay output.
	Schedule []string
	// Rounds is the number of completed iterations in the trace — the
	// rebalance matrix asserts it equals Iters (no dropped rounds).
	Rounds int
	// Rebalances counts applied membership plans; MigrationBytes is the
	// model/state traffic those migrations shipped.
	Rebalances     int64
	MigrationBytes int64
}

// Defaults fills zero fields with the harness's standard small workload:
// big enough that losses move, small enough that the full engine × fault
// matrix stays fast.
func (w Workload) Defaults() Workload {
	if w.N == 0 {
		w.N = 240
	}
	if w.Features == 0 {
		w.Features = 24
	}
	if w.NNZPerRow == 0 {
		w.NNZPerRow = 8
	}
	if w.Model == "" {
		w.Model = "lr"
	}
	if w.Model == "mlr" && w.Classes == 0 {
		w.Classes = 3
	}
	if w.Model == "mlr" && w.ModelArg == 0 {
		w.ModelArg = w.Classes
	}
	if w.Model == "fm" && w.ModelArg == 0 {
		w.ModelArg = 4
	}
	if w.Opt.Algo == "" {
		w.Opt.Algo = "sgd"
	}
	if w.Opt.LR == 0 {
		w.Opt.LR = 0.5
	}
	if w.Batch == 0 {
		w.Batch = 30
	}
	if w.Iters == 0 {
		w.Iters = 30
	}
	if w.Workers == 0 {
		w.Workers = 3
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	return w
}

// Dataset generates the workload's synthetic dataset.
func (w Workload) Dataset() (*dataset.Dataset, error) {
	w = w.Defaults()
	return dataset.Generate(dataset.SyntheticSpec{
		Name:      "chaos",
		N:         w.N,
		Features:  w.Features,
		NNZPerRow: w.NNZPerRow,
		Classes:   w.Classes,
		Seed:      w.Seed,
	})
}

// Run dispatches by engine name ("sequential" plus Engines()).
func Run(engine string, w Workload, spec *chaos.Spec) (*Result, error) {
	switch engine {
	case "sequential":
		return RunSequential(w)
	case "columnsgd":
		return RunColumnSGD(w, spec)
	case "mllib":
		return RunRowSGD(w, rowsgd.MLlib, spec)
	case "mllib*":
		return RunRowSGD(w, rowsgd.MLlibStar, spec)
	case "petuum":
		return RunRowSGD(w, rowsgd.Petuum, spec)
	case "mxnet":
		return RunRowSGD(w, rowsgd.MXNet, spec)
	}
	return nil, fmt.Errorf("diff: unknown engine %q", engine)
}

// RunSequential trains the single-machine Algorithm 1 reference.
func RunSequential(w Workload) (*Result, error) {
	w = w.Defaults()
	ds, err := w.Dataset()
	if err != nil {
		return nil, err
	}
	seq, err := core.NewSequential(ds, w.Model, w.ModelArg, w.Opt, w.Batch, w.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := seq.Run(w.Iters); err != nil {
		return nil, err
	}
	return &Result{Engine: "sequential", Loss: seq.FullLoss(), Weights: cloneW(seq.Params())}, nil
}

// RunColumnSGD trains the ColumnSGD engine over the in-process channel
// transport, behind a chaos injector when spec is non-nil. Injection is
// disabled during Load (loads are not idempotent) and enabled for
// training — at the same call-sequence point every run, preserving
// determinism.
func RunColumnSGD(w Workload, spec *chaos.Spec) (*Result, error) {
	w = w.Defaults()
	codec, err := w.codec()
	if err != nil {
		return nil, err
	}
	if w.Membership != "" {
		pool, err := membership.NewPool(w.Workers, func(slot int) (*cluster.Service, error) {
			return core.NewWorkerService(), nil
		}, codec)
		if err != nil {
			return nil, err
		}
		return runColumnSGD(w, pool, spec)
	}
	local, err := core.NewLocalProviderCodec(w.Workers, codec)
	if err != nil {
		return nil, err
	}
	return runColumnSGD(w, local, spec)
}

// RunColumnSGDTCP trains the same job over a TCP loopback cluster — the
// golden-determinism leg proving the transport does not change the math.
func RunColumnSGDTCP(w Workload, spec *chaos.Spec) (*Result, error) {
	w = w.Defaults()
	codec, err := w.codec()
	if err != nil {
		return nil, err
	}
	servers := make([]*cluster.Server, w.Workers)
	addrs := make([]string, w.Workers)
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := range servers {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := cluster.NewServer(core.NewWorkerService(), lis)
		go srv.Serve() //nolint:errcheck // Serve exits cleanly on Close
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	prov, err := core.NewRemoteProviderCodec(addrs, codec)
	if err != nil {
		return nil, err
	}
	defer prov.Close()
	return runColumnSGD(w, prov, spec)
}

func runColumnSGD(w Workload, prov core.Provider, spec *chaos.Spec) (*Result, error) {
	var inj *chaos.Injector
	if spec != nil {
		inj = chaos.NewInjector(*spec)
		inj.SetEnabled(false)
		prov = chaos.NewProvider(prov, inj)
	}
	cfg := core.Config{
		Workers:            w.Workers,
		ModelName:          w.Model,
		ModelArg:           w.ModelArg,
		Opt:                w.Opt,
		BatchSize:          w.Batch,
		BlockSize:          16,
		Seed:               w.Seed,
		ComputeParallelism: w.Parallelism,
		Pipeline:           w.Pipeline,
		Staleness:          w.Staleness,
		StalenessSeed:      w.StalenessSeed,
		Precision:          w.Precision,
		Membership:         w.Membership,
		Solver:             w.Solver,
		LocalSteps:         w.LocalSteps,
		LBFGSMemory:        w.LBFGSMemory,
	}
	e, err := core.NewEngine(cfg, prov)
	if err != nil {
		return nil, err
	}
	ds, err := w.Dataset()
	if err != nil {
		return nil, err
	}
	if err := e.Load(ds); err != nil {
		return nil, err
	}
	res := &Result{Engine: "columnsgd"}
	if inj != nil {
		inj.SetEnabled(true)
	}
	_, runErr := e.Run(w.Iters)
	if inj != nil {
		inj.SetEnabled(false)
		res.Faults = inj.Counters()
		res.Schedule = inj.Schedule()
	}
	res.Retries, res.Restarts = e.Retries(), e.Restarts()
	tr := e.Trace()
	res.Rounds = len(tr.Iterations)
	res.Rebalances, res.MigrationBytes = tr.Rebalances, tr.MigrationBytes
	if runErr != nil {
		return res, runErr
	}
	if res.Loss, err = e.FullLoss(); err != nil {
		return res, err
	}
	p, err := e.ExportModel()
	if err != nil {
		return res, err
	}
	res.Weights = cloneW(p)
	return res, nil
}

// RunRowSGD trains one of the four RowSGD baselines over the channel
// transport, behind a chaos injector when spec is non-nil. Elastic
// workloads (Membership set) run on a rehostable node pool instead of
// the fixed local fleet, with the chaos injector interposed at the
// provider level so fault links follow slots across migrations.
func RunRowSGD(w Workload, sys rowsgd.System, spec *chaos.Spec) (*Result, error) {
	w = w.Defaults()
	codec, err := w.codec()
	if err != nil {
		return nil, err
	}
	cfg := rowsgd.Config{
		System:        sys,
		Workers:       w.Workers,
		ModelName:     w.Model,
		ModelArg:      w.ModelArg,
		Opt:           w.Opt,
		BatchSize:     w.Batch,
		Seed:          w.Seed,
		Staleness:     w.Staleness,
		StalenessSeed: w.StalenessSeed,
		Precision:     w.Precision,
		Membership:    w.Membership,
		Solver:        w.Solver,
		LBFGSMemory:   w.LBFGSMemory,
	}
	if w.Solver == opt.SolverLocal {
		cfg.LocalSteps = w.LocalSteps
	}
	var e *rowsgd.Engine
	var inj *chaos.Injector
	if w.Membership != "" {
		pool, err := membership.NewPool(w.Workers, func(int) (*cluster.Service, error) {
			return rowsgd.NewWorkerService(), nil
		}, codec)
		if err != nil {
			return nil, err
		}
		var prov rowsgd.ElasticProvider = pool
		if spec != nil {
			inj = chaos.NewInjector(*spec)
			inj.SetEnabled(false)
			prov = chaos.NewProvider(pool, inj)
		}
		if e, err = rowsgd.NewElasticEngine(cfg, prov); err != nil {
			return nil, err
		}
	} else {
		local, err := cluster.NewLocalCodec(w.Workers, func(int) (*cluster.Service, error) {
			return rowsgd.NewWorkerService(), nil
		}, codec)
		if err != nil {
			return nil, err
		}
		clients := local.Clients()
		if spec != nil {
			inj = chaos.NewInjector(*spec)
			inj.SetEnabled(false)
			clients = inj.Wrap(clients)
		}
		if e, err = rowsgd.NewEngine(cfg, clients); err != nil {
			return nil, err
		}
	}
	ds, err := w.Dataset()
	if err != nil {
		return nil, err
	}
	if err := e.Load(ds); err != nil {
		return nil, err
	}
	res := &Result{Engine: string(sys)}
	if inj != nil {
		inj.SetEnabled(true)
	}
	_, runErr := e.Run(w.Iters)
	if inj != nil {
		inj.SetEnabled(false)
		res.Faults = inj.Counters()
		res.Schedule = inj.Schedule()
	}
	res.Retries, res.Restarts = e.Retries(), e.Restarts()
	tr := e.Trace()
	res.Rounds = len(tr.Iterations)
	res.Rebalances, res.MigrationBytes = tr.Rebalances, tr.MigrationBytes
	if runErr != nil {
		return res, runErr
	}
	if res.Loss, err = e.FullLoss(); err != nil {
		return res, err
	}
	p, err := e.ExportModel()
	if err != nil {
		return res, err
	}
	res.Weights = cloneW(p)
	return res, nil
}

// WithDeadline runs fn under the watchdog. A run that outlives the
// deadline returns ErrDeadline — the goroutine is abandoned (Go cannot
// kill it), which is exactly the hang the error reports.
func WithDeadline(d time.Duration, fn func() (*Result, error)) (*Result, error) {
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := fn()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(d):
		return nil, fmt.Errorf("%w (%v)", ErrDeadline, d)
	}
}

// BitIdentical reports whether two weight matrices match bit for bit
// (NaNs compare equal to themselves, unlike ==).
func BitIdentical(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise |a-b| (Inf on shape
// mismatch).
func MaxAbsDiff(a, b [][]float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var max float64
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return math.Inf(1)
		}
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > max {
				max = d
			}
		}
	}
	return max
}

func cloneW(p *model.Params) [][]float64 {
	out := make([][]float64, len(p.W))
	for i, row := range p.W {
		out[i] = append([]float64(nil), row...)
	}
	return out
}
