package main

// Perf-regression harness: -benchjson runs a fixed micro-benchmark suite
// over the worker hot loop (per engine × model × compute parallelism) and
// writes machine-readable results; -benchdiff compares two such files and
// exits non-zero on regression. Wired up as `make bench` / `make
// benchdiff`.

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"columnsgd/internal/chaos/diff"
	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/driver"
	"columnsgd/internal/opt"
	"columnsgd/internal/partition"
	"columnsgd/internal/rowsgd"
	"columnsgd/internal/serve"
	"columnsgd/internal/ssp"
	"columnsgd/internal/vec"
	"columnsgd/internal/wire"
)

// BenchResult is one benchmark's steady-state measurements.
type BenchResult struct {
	// Name identifies the benchmark: suite/model/P<parallelism>.
	Name string `json:"name"`
	// Engine is the subsystem under test.
	Engine string `json:"engine"`
	// Model is the model family.
	Model string `json:"model"`
	// P is the compute-pool parallelism.
	P int `json:"p"`
	// NsPerIter is wall nanoseconds per operation.
	NsPerIter float64 `json:"ns_per_iter"`
	// BytesPerIter / AllocsPerIter are heap bytes and allocations per
	// operation.
	BytesPerIter  int64 `json:"bytes_per_iter"`
	AllocsPerIter int64 `json:"allocs_per_iter"`
	// P50Ns/P99Ns/P999Ns are per-request latency quantiles in
	// nanoseconds, set only by the open-loop serving rows (serve-load/*);
	// benchdiff gates P99Ns with the same threshold as NsPerIter.
	P50Ns  float64 `json:"p50_ns,omitempty"`
	P99Ns  float64 `json:"p99_ns,omitempty"`
	P999Ns float64 `json:"p999_ns,omitempty"`
	// MigrationBytes is the model/state traffic a membership rebalance
	// shipped, set only by the rebalance/* rows. The value is
	// deterministic for a fixed workload, so benchdiff gates its growth
	// with the same threshold as NsPerIter.
	MigrationBytes int64 `json:"migration_bytes,omitempty"`
	// StatsBytesToTarget is the statistics traffic a solver row spent to
	// first reach the fixed target loss, set only by the solver/* rows.
	// Deterministic for a fixed workload, so benchdiff gates its growth
	// with the same threshold as NsPerIter — a fatter frame or extra
	// rounds to target is a real efficiency regression, not noise.
	StatsBytesToTarget int64 `json:"stats_bytes_to_target,omitempty"`
}

// BenchReport is the file `make bench` writes (BENCH_<rev>.json).
type BenchReport struct {
	// Rev is the git revision the suite ran at (-rev flag).
	Rev string `json:"rev"`
	// GoVersion / CPUs / GOMAXPROCS pin the measurement environment;
	// speedup shapes only transfer between machines with comparable CPU
	// counts.
	GoVersion  string        `json:"go_version"`
	CPUs       int           `json:"cpus"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []BenchResult `json:"results"`
}

// Suite shape: large enough that a batch spans many fixed chunks (1024
// rows ≫ the 16-row grain), small enough that the whole suite (3 rounds
// per benchmark) runs in a few minutes.
const (
	benchRows     = 4096
	benchFeatures = 65536
	benchNNZ      = 128
	benchBatch    = 1024
	benchBlock    = 256
)

func benchModels() []struct {
	Name string
	Arg  int
} {
	return []struct {
		Name string
		Arg  int
	}{{"lr", 0}, {"svm", 0}, {"mlr", 3}, {"fm", 4}}
}

// benchBlocks generates the synthetic column-partition worksets the
// worker benchmark loads (single partition spanning all features).
func benchBlocks(classes int) []*partition.Workset {
	r := rand.New(rand.NewSource(4242))
	var out []*partition.Workset
	for b := 0; b*benchBlock < benchRows; b++ {
		csr := vec.NewCSR(benchFeatures, benchBlock)
		labels := make([]float64, benchBlock)
		for i := 0; i < benchBlock; i++ {
			seen := make(map[int32]bool, benchNNZ)
			idx := make([]int32, 0, benchNNZ)
			for len(idx) < benchNNZ {
				j := int32(r.Intn(benchFeatures))
				if seen[j] {
					continue
				}
				seen[j] = true
				idx = append(idx, j)
			}
			sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
			val := make([]float64, benchNNZ)
			for k := range val {
				val[k] = r.NormFloat64()
			}
			if err := csr.AppendRow(vec.Sparse{Indices: idx, Values: val}); err != nil {
				panic(err)
			}
			if classes > 0 {
				labels[i] = float64(r.Intn(classes))
			} else if r.Intn(2) == 0 {
				labels[i] = -1
			} else {
				labels[i] = 1
			}
		}
		out = append(out, &partition.Workset{BlockID: b, Labels: labels, Data: csr})
	}
	return out
}

// benchWorker measures the worker hot loop — one computeStats → update
// round per op, driven through the service dispatch seam exactly as the
// transports do (typed args, no serialization cost). prec selects the
// numeric width ("" = f64, "f32" = float32 kernels).
func benchWorker(modelName string, modelArg, p int, prec string) (testing.BenchmarkResult, error) {
	w := core.NewWorker()
	svc := core.RegisterWorker(w)
	if _, err := svc.Dispatch(core.MethodInit, &core.InitArgs{
		Worker:      0,
		Partitions:  []int{0},
		Widths:      []int{benchFeatures},
		ModelName:   modelName,
		ModelArg:    modelArg,
		Opt:         opt.Config{LR: 0.05},
		Seed:        1,
		Parallelism: p,
		Precision:   prec,
	}); err != nil {
		return testing.BenchmarkResult{}, err
	}
	classes := 0
	if modelName == "mlr" {
		classes = modelArg
	}
	for _, ws := range benchBlocks(classes) {
		if _, err := svc.Dispatch(core.MethodLoad, &core.LoadArgs{Partition: 0, Workset: ws}); err != nil {
			return testing.BenchmarkResult{}, err
		}
	}
	if _, err := svc.Dispatch(core.MethodLoadDone, &core.LoadDoneArgs{}); err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer w.Shutdown()

	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			iter := int64(i)
			v, err := svc.Dispatch(core.MethodComputeStats, &core.StatsArgs{Iter: iter, BatchSize: benchBatch})
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			sr := v.(*core.StatsReply)
			if _, err := svc.Dispatch(core.MethodUpdate, &core.UpdateArgs{Iter: iter, BatchSize: benchBatch, Stats: sr.Stats}); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// benchWorkload is the smaller end-to-end shape shared by the engine-level
// benchmarks (full K=4 cluster per op is far costlier than one worker).
func benchWorkload(p int) diff.Workload {
	return diff.Workload{
		N: 2048, Features: 2048, NNZPerRow: 32,
		Model: "lr", Batch: 512, Workers: 4, Seed: 5,
		Opt:         opt.Config{Algo: "sgd", LR: 0.05},
		Parallelism: p,
	}
}

// benchEngineStep measures one full ColumnSGD iteration (sample, stats,
// aggregate, update across a 4-worker in-process cluster), optionally
// with the driver's pipelined fan-out prefetching the next iteration's
// statistics behind the update broadcast.
func benchEngineStep(p int, pipeline bool) (testing.BenchmarkResult, error) {
	w := benchWorkload(p)
	prov, err := core.NewLocalProvider(w.Workers)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	e, err := core.NewEngine(core.Config{
		Workers:            w.Workers,
		ModelName:          w.Model,
		Opt:                w.Opt,
		BatchSize:          w.Batch,
		BlockSize:          64,
		Seed:               w.Seed,
		ComputeParallelism: p,
		Pipeline:           pipeline,
	}, prov)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ds, err := w.Dataset()
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	if err := e.Load(ds); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Step(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// benchEngineStepF32 measures one full ColumnSGD iteration at float32
// precision over the float32 wire codec — the configuration the f32 mode
// is designed for: float32 kernels on the workers, f32 statistics frames
// (lossless here, the values are already float32-representable), and the
// zero-copy decode filling pooled scratch on both ends.
func benchEngineStepF32(p int) (testing.BenchmarkResult, error) {
	w := benchWorkload(p)
	codec, err := wire.ParseCodec("wire-f32")
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	prov, err := core.NewLocalProviderCodec(w.Workers, codec)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	e, err := core.NewEngine(core.Config{
		Workers:            w.Workers,
		ModelName:          w.Model,
		Opt:                w.Opt,
		BatchSize:          w.Batch,
		BlockSize:          64,
		Seed:               w.Seed,
		ComputeParallelism: p,
		Precision:          core.PrecisionF32,
	}, prov)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ds, err := w.Dataset()
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	if err := e.Load(ds); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Step(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// benchHeavyWorkload is the compute-bound engine shape: 8× the
// per-iteration kernel work of benchWorkload (batch 1024 × 128 nnz vs
// 512 × 32) at the same row count, so the fixed per-iteration costs the
// two precisions share — deterministic batch sampling, fan-out, loss —
// shrink from ~half the step to a few percent and the measured ratio
// reflects the numeric kernels.
func benchHeavyWorkload(p int) diff.Workload {
	return diff.Workload{
		N: 16384, Features: 65536, NNZPerRow: 256,
		Model: "lr", Batch: 1024, Workers: 4, Seed: 5,
		Opt:         opt.Config{Algo: "sgd", LR: 0.05},
		Parallelism: p,
	}
}

// benchEngineStepHeavy measures one full ColumnSGD iteration on the
// compute-bound heavy workload, in f64 ("") or f32 ("f32", over the
// float32 wire codec like benchEngineStepF32). The pair exists to gate
// the f32 speedup target at engine level: on benchWorkload the step is
// dominated by precision-independent orchestration, so a kernel-level
// win is invisible there by construction.
func benchEngineStepHeavy(p int, prec string) (testing.BenchmarkResult, error) {
	w := benchHeavyWorkload(p)
	cfg := core.Config{
		Workers:            w.Workers,
		ModelName:          w.Model,
		Opt:                w.Opt,
		BatchSize:          w.Batch,
		BlockSize:          64,
		Seed:               w.Seed,
		ComputeParallelism: p,
	}
	var prov core.Provider
	var err error
	if prec == "f32" {
		cfg.Precision = core.PrecisionF32
		var codec wire.Codec
		codec, err = wire.ParseCodec("wire-f32")
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		prov, err = core.NewLocalProviderCodec(w.Workers, codec)
	} else {
		prov, err = core.NewLocalProvider(w.Workers)
	}
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	e, err := core.NewEngine(cfg, prov)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ds, err := w.Dataset()
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	if err := e.Load(ds); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Step(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// benchEngineStepSSP measures one full ColumnSGD iteration under the
// bounded-staleness runtime (s = 2, jittered lag schedule): async
// gather, per-worker clocks, and merge-on-arrival aggregation replace
// engine-step's barrier. Step is BSP-only, so each benchmark invocation
// drives b.N rounds through Run on a persistent engine — per-op cost is
// one SSP iteration.
func benchEngineStepSSP(p int) (testing.BenchmarkResult, error) {
	w := benchWorkload(p)
	prov, err := core.NewLocalProvider(w.Workers)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	e, err := core.NewEngine(core.Config{
		Workers:            w.Workers,
		ModelName:          w.Model,
		Opt:                w.Opt,
		BatchSize:          w.Batch,
		BlockSize:          64,
		Seed:               w.Seed,
		ComputeParallelism: p,
		Staleness:          2,
		StalenessSeed:      1,
	}, prov)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ds, err := w.Dataset()
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	if err := e.Load(ds); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if _, err := e.Run(b.N); err != nil {
			benchErr = err
			b.FailNow()
		}
	})
	return res, benchErr
}

// benchMergeAccumulator measures the merge-on-arrival hot path in
// isolation: one iteration per op — K statistics frames merged in
// reverse slot order (the worst case: K−1 frames park in the reorder
// buffer and fold when slot 0 lands), one Wait on the completed
// aggregate, and K releases returning the buffer to the pool.
func benchMergeAccumulator() (testing.BenchmarkResult, error) {
	const k = 4
	r := rand.New(rand.NewSource(77))
	frames := make([][]float64, k)
	for w := range frames {
		frames[w] = make([]float64, benchBatch)
		for i := range frames[w] {
			frames[w][i] = r.NormFloat64()
		}
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		acc := ssp.NewAccumulator(k, 3)
		for i := 0; i < b.N; i++ {
			iter := int64(i)
			for slot := k - 1; slot >= 0; slot-- {
				if _, err := acc.Merge(iter, slot, frames[slot]); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
			if _, err := acc.Wait(iter); err != nil {
				benchErr = err
				b.FailNow()
			}
			for w := 0; w < k; w++ {
				acc.Release(iter)
			}
		}
	})
	return res, benchErr
}

// fanoutEchoArgs is the trivial payload of the driver fan-out benchmark.
type fanoutEchoArgs struct{ X int64 }

func init() { gob.Register(&fanoutEchoArgs{}) }

// benchDriverFanout measures the master-side round runtime in isolation:
// one driver.Gather across a 4-worker in-process cluster whose handler
// does no work, so the cost is pure fan-out machinery — goroutine
// launch, per-worker locking, transport round trip, traffic accounting.
func benchDriverFanout() (testing.BenchmarkResult, error) {
	const k = 4
	local, err := cluster.NewLocal(k, func(int) (*cluster.Service, error) {
		svc := cluster.NewService()
		svc.Register("echo", func(args interface{}) (interface{}, error) {
			return args, nil
		})
		return svc, nil
	})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	d := driver.New(local.Clients(), driver.Options{})
	workers := make([]int, k)
	for i := range workers {
		workers[i] = i
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		replies := make([]fanoutEchoArgs, k)
		var tr driver.Traffic
		for i := 0; i < b.N; i++ {
			args := &fanoutEchoArgs{X: int64(i)}
			if _, err := d.Gather(workers, &tr, func(slot, _ int) driver.Call {
				return driver.Call{Method: "echo", Args: args, Reply: &replies[slot], Retry: true}
			}); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// benchRowSGDStep measures one RowSGD (MLlib-style) iteration.
func benchRowSGDStep(p int) (testing.BenchmarkResult, error) {
	w := benchWorkload(p)
	e, err := rowsgd.NewLocalEngine(rowsgd.Config{
		System:      rowsgd.MLlib,
		Workers:     w.Workers,
		ModelName:   w.Model,
		Opt:         w.Opt,
		BatchSize:   w.Batch,
		Seed:        w.Seed,
		Parallelism: p,
	})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ds, err := w.Dataset()
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	if err := e.Load(ds); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Step(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// benchServe measures single-request scoring latency through the full
// admission → micro-batch → shard fan-out path (MaxBatch 1 so the
// batcher dispatches immediately instead of waiting out MaxWait).
func benchServe(p int) (testing.BenchmarkResult, error) {
	s, err := serve.New(serve.Options{
		ModelName:   "lr",
		Shards:      4,
		MaxBatch:    1,
		Parallelism: p,
	})
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer s.Close()
	const features = 2048
	weights := make([]float64, features)
	r := rand.New(rand.NewSource(11))
	for i := range weights {
		weights[i] = r.NormFloat64()
	}
	if _, err := s.Install([][]float64{weights}); err != nil {
		return testing.BenchmarkResult{}, err
	}
	idx := make([]int32, 64)
	val := make([]float64, 64)
	for k := range idx {
		idx[k] = int32(k * (features / 64))
		val[k] = r.NormFloat64()
	}
	row, err := vec.NewSparse(idx, val)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	ctx := context.Background()
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Predict(ctx, row); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// codecStatsReply builds a representative sparse statistics response: one
// worker's partial sums for a 1024-row LR batch where most rows have no
// nonzero feature on this worker (the shape §III-C's traffic argument is
// about). Roughly 1/8 of the entries are nonzero.
func codecStatsReply() *core.StatsReply {
	r := rand.New(rand.NewSource(99))
	stats := make([]float64, benchBatch)
	for i := range stats {
		if r.Intn(8) == 0 {
			stats[i] = r.NormFloat64()
		}
	}
	return &core.StatsReply{Stats: stats, NNZ: benchBatch * benchNNZ / 4}
}

// benchCodec measures one statistics-response encode + decode round trip
// under the given codec — the per-iteration serialization cost of the
// master↔worker exchange.
func benchCodec(c wire.Codec) (testing.BenchmarkResult, error) {
	reply := codecStatsReply()
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame, err := cluster.EncodeResponseFrame(c, reply, "")
			if err == nil {
				_, _, err = cluster.DecodeResponseFrame(c, frame)
			}
			if err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	return res, benchErr
}

// codecFrameBytes reports the encoded size of the representative
// statistics response under the codec.
func codecFrameBytes(c wire.Codec) (int, error) {
	frame, err := cluster.EncodeResponseFrame(c, codecStatsReply(), "")
	return len(frame), err
}

// benchRounds is how many times each benchmark runs; the fastest round
// is reported. Wall-clock noise on a loaded machine only ever slows a
// round down, so min-of-N is the standard estimator of the true cost —
// single rounds on a busy single-core box swing well past the 15%
// regression threshold.
const benchRounds = 3

// benchLoadCase is one serve-load row: an open-loop run against a
// replicated server with a 10ms straggler on replica 0 of every shard —
// the tail-at-scale shape hedged requests exist for.
func benchLoadCase(replicas int, hedge time.Duration) (*loadResult, error) {
	return runLoad(loadConfig{
		Replicas:   replicas,
		HedgeAfter: hedge,
		Straggle:   10 * time.Millisecond,
		Requests:   600,
		Seed:       42,
	})
}

// bestLoadOf runs the load case benchRounds times and keeps the round
// with the lowest p99 — quantiles, like ns/iter, only ever inflate
// under machine noise, so min-of-N estimates the true tail.
func bestLoadOf(replicas int, hedge time.Duration) (*loadResult, error) {
	var best *loadResult
	for i := 0; i < benchRounds; i++ {
		res, err := benchLoadCase(replicas, hedge)
		if err != nil {
			return nil, err
		}
		if res.Failed > 0 {
			return nil, fmt.Errorf("serve-load R%d hedge %v: %d scores dropped", replicas, hedge, res.Failed)
		}
		if best == nil || res.P99 < best.P99 {
			best = res
		}
	}
	return best, nil
}

// benchRebalance measures a whole elastic training job at fleet size k
// that loses a node at the round-2 barrier and regains a fresh one at
// round 4 — the headline elasticity scenario. A pure join onto a
// balanced fleet moves nothing (slot i already sits alone on node i),
// so the leave is what makes the mid-job join actually migrate
// partitions back. Reported: wall clock per job, plus the migration
// bytes the two rebalances shipped — deterministic for a fixed
// workload, so benchdiff can gate both.
func benchRebalance(k int) (testing.BenchmarkResult, int64, error) {
	var migBytes int64
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if migBytes, benchErr = rebalanceJob(k); benchErr != nil {
				b.FailNow()
			}
		}
	})
	return res, migBytes, benchErr
}

// rebalanceJob runs benchRebalance's job once and returns the migration
// bytes its two rebalances shipped.
func rebalanceJob(k int) (int64, error) {
	w := diff.Workload{
		N: 2048, Features: 2048, NNZPerRow: 32,
		Model: "lr", Batch: 512, Workers: k, Seed: 5,
		Opt:        opt.Config{Algo: "sgd", LR: 0.05},
		Iters:      8,
		Membership: fmt.Sprintf("leave@2:%d,join@4:%d", k-1, k),
	}
	r, err := diff.RunColumnSGD(w, nil)
	if err != nil {
		return 0, err
	}
	if r.Rebalances != 2 || r.MigrationBytes <= 0 || r.Rounds != w.Iters {
		return 0, fmt.Errorf("rebalance P%d: rebalances=%d migration=%d rounds=%d",
			k, r.Rebalances, r.MigrationBytes, r.Rounds)
	}
	return r.MigrationBytes, nil
}

// benchSolver measures a whole training job under one master-side
// solver until it first reaches the target full-data loss, reporting
// wall clock per job plus the statistics bytes spent to get there —
// the fewer-fatter-rounds trade the solver layer exists for, in one
// deterministic number benchdiff can gate.
func benchSolver(solver string, localSteps, memory int) (testing.BenchmarkResult, int64, error) {
	var statsBytes int64
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if statsBytes, benchErr = solverJob(solver, localSteps, memory); benchErr != nil {
				b.FailNow()
			}
		}
	})
	return res, statsBytes, benchErr
}

// solverJob runs benchSolver's job once and returns the statistics
// bytes it spent to reach the target loss.
func solverJob(solver string, localSteps, memory int) (int64, error) {
	// Target 0.30 is deep enough that per-round SGD pays ~33 rounds while
	// the fatter-round solvers arrive in a handful; batch 120 keeps the
	// classic round fat enough that full-batch L-BFGS margins (keyed to N,
	// not B) don't drown its round advantage in frame size.
	const (
		solverTargetLoss = 0.30
		solverMaxIters   = 60
	)
	w := diff.Workload{
		Model: "lr", Seed: 5, Batch: 120,
		Solver: solver, LocalSteps: localSteps, LBFGSMemory: memory,
	}.Defaults()
	prov, err := core.NewLocalProvider(w.Workers)
	if err != nil {
		return 0, err
	}
	e, err := core.NewEngine(core.Config{
		Workers:     w.Workers,
		ModelName:   w.Model,
		Opt:         w.Opt,
		BatchSize:   w.Batch,
		BlockSize:   16,
		Seed:        w.Seed,
		EvalEvery:   1,
		Solver:      w.Solver,
		LocalSteps:  w.LocalSteps,
		LBFGSMemory: w.LBFGSMemory,
	}, prov)
	if err != nil {
		return 0, err
	}
	ds, err := w.Dataset()
	if err != nil {
		return 0, err
	}
	if err := e.Load(ds); err != nil {
		return 0, err
	}
	if _, err := e.Run(solverMaxIters); err != nil {
		return 0, err
	}
	var bytes int64
	for _, it := range e.Trace().Iterations {
		for _, ph := range it.Phases {
			bytes += ph.Bytes
		}
		if it.Loss == it.Loss && it.Loss <= solverTargetLoss {
			return bytes, nil
		}
	}
	return 0, fmt.Errorf("solver %s: loss never reached %.2f in %d rounds",
		solver, solverTargetLoss, solverMaxIters)
}

// bestOf runs fn benchRounds times and keeps the fastest round.
func bestOf(fn func() (testing.BenchmarkResult, error)) (testing.BenchmarkResult, error) {
	var best testing.BenchmarkResult
	for i := 0; i < benchRounds; i++ {
		res, err := fn()
		if err != nil {
			return res, err
		}
		if i == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	return best, nil
}

// runBenchJSON runs the whole suite and writes the report.
func runBenchJSON(path, rev string, stdout io.Writer) error {
	report := BenchReport{
		Rev:        rev,
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	add := func(name, engine, model string, p int, res testing.BenchmarkResult, err error) error {
		if err != nil {
			return fmt.Errorf("bench %s: %w", name, err)
		}
		report.Results = append(report.Results, BenchResult{
			Name:          name,
			Engine:        engine,
			Model:         model,
			P:             p,
			NsPerIter:     float64(res.NsPerOp()),
			BytesPerIter:  res.AllocedBytesPerOp(),
			AllocsPerIter: res.AllocsPerOp(),
		})
		fmt.Fprintf(stdout, "[bench] %-24s %12.0f ns/iter %10d B/iter %7d allocs/iter\n",
			name, float64(res.NsPerOp()), res.AllocedBytesPerOp(), res.AllocsPerOp())
		return nil
	}

	for _, m := range benchModels() {
		for _, p := range []int{1, 2, 4} {
			res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchWorker(m.Name, m.Arg, p, "") })
			if err := add(fmt.Sprintf("worker/%s/P%d", m.Name, p), "columnsgd", m.Name, p, res, err); err != nil {
				return err
			}
		}
	}
	for _, m := range benchModels() {
		for _, p := range []int{1, 4} {
			res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchWorker(m.Name, m.Arg, p, "f32") })
			if err := add(fmt.Sprintf("worker-f32/%s/P%d", m.Name, p), "columnsgd", m.Name, p, res, err); err != nil {
				return err
			}
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchEngineStep(p, false) })
		if err := add(fmt.Sprintf("engine-step/lr/P%d", p), "columnsgd", "lr", p, res, err); err != nil {
			return err
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchEngineStepF32(p) })
		if err := add(fmt.Sprintf("engine-step-f32/lr/P%d", p), "columnsgd", "lr", p, res, err); err != nil {
			return err
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchEngineStepHeavy(p, "") })
		if err := add(fmt.Sprintf("engine-step-heavy/lr/P%d", p), "columnsgd", "lr", p, res, err); err != nil {
			return err
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchEngineStepHeavy(p, "f32") })
		if err := add(fmt.Sprintf("engine-step-heavy-f32/lr/P%d", p), "columnsgd", "lr", p, res, err); err != nil {
			return err
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchEngineStep(p, true) })
		if err := add(fmt.Sprintf("engine-step-pipelined/lr/P%d", p), "columnsgd", "lr", p, res, err); err != nil {
			return err
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchEngineStepSSP(p) })
		if err := add(fmt.Sprintf("engine-step-ssp/lr/P%d", p), "columnsgd", "lr", p, res, err); err != nil {
			return err
		}
	}
	{
		res, err := bestOf(benchDriverFanout)
		if err := add("driver/fanout/K4", "driver", "none", 1, res, err); err != nil {
			return err
		}
	}
	{
		res, err := bestOf(benchMergeAccumulator)
		if err := add("ssp/merge-accumulator", "ssp", "none", 1, res, err); err != nil {
			return err
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchRowSGDStep(p) })
		if err := add(fmt.Sprintf("rowsgd/lr/P%d", p), "rowsgd-mllib", "lr", p, res, err); err != nil {
			return err
		}
	}
	for _, p := range []int{1, 4} {
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchServe(p) })
		if err := add(fmt.Sprintf("serve/lr/P%d", p), "serve", "lr", p, res, err); err != nil {
			return err
		}
	}
	for _, lc := range []struct {
		name     string
		replicas int
		hedge    time.Duration
	}{
		{"serve-load/R1", 1, 0},
		{"serve-load/R2", 2, 0},
		{"serve-load/R2-hedge", 2, time.Millisecond},
		{"serve-load/R3", 3, 0},
		{"serve-load/R3-hedge", 3, time.Millisecond},
	} {
		res, err := bestLoadOf(lc.replicas, lc.hedge)
		if err != nil {
			return fmt.Errorf("bench %s: %w", lc.name, err)
		}
		report.Results = append(report.Results, BenchResult{
			Name:      lc.name,
			Engine:    "serve",
			Model:     "lr",
			P:         lc.replicas,
			NsPerIter: float64(res.P50),
			P50Ns:     float64(res.P50),
			P99Ns:     float64(res.P99),
			P999Ns:    float64(res.P999),
		})
		fmt.Fprintf(stdout, "[bench] %-24s %12.0f ns/p50 %12.0f ns/p99 %12.0f ns/p999\n",
			lc.name, float64(res.P50), float64(res.P99), float64(res.P999))
	}
	for _, k := range []int{2, 4} {
		name := fmt.Sprintf("rebalance/join/P%d", k)
		var migBytes int64
		res, err := bestOf(func() (testing.BenchmarkResult, error) {
			r, mb, err := benchRebalance(k)
			migBytes = mb
			return r, err
		})
		if err != nil {
			return fmt.Errorf("bench %s: %w", name, err)
		}
		report.Results = append(report.Results, BenchResult{
			Name:           name,
			Engine:         "columnsgd",
			Model:          "lr",
			P:              k,
			NsPerIter:      float64(res.NsPerOp()),
			MigrationBytes: migBytes,
		})
		fmt.Fprintf(stdout, "[bench] %-24s %12.0f ns/job  %10d migration bytes\n",
			name, float64(res.NsPerOp()), migBytes)
	}
	for _, sc := range []struct {
		name       string
		solver     string
		localSteps int
		memory     int
	}{
		{"solver/sgd", "sgd", 0, 0},
		{"solver/local-K4", "local", 4, 0},
		{"solver/lbfgs-m8", "lbfgs", 0, 8},
	} {
		var statsBytes int64
		res, err := bestOf(func() (testing.BenchmarkResult, error) {
			r, sb, err := benchSolver(sc.solver, sc.localSteps, sc.memory)
			statsBytes = sb
			return r, err
		})
		if err != nil {
			return fmt.Errorf("bench %s: %w", sc.name, err)
		}
		report.Results = append(report.Results, BenchResult{
			Name:               sc.name,
			Engine:             "columnsgd",
			Model:              "lr",
			P:                  1,
			NsPerIter:          float64(res.NsPerOp()),
			StatsBytesToTarget: statsBytes,
		})
		fmt.Fprintf(stdout, "[bench] %-24s %12.0f ns/job  %10d stats bytes to target\n",
			sc.name, float64(res.NsPerOp()), statsBytes)
	}
	wireBytes, err := codecFrameBytes(wire.Default)
	if err != nil {
		return fmt.Errorf("bench codec: %w", err)
	}
	for _, name := range []string{"wire", "wire-f32", "wire-f16"} {
		c, err := wire.ParseCodec(name)
		if err != nil {
			return err
		}
		n, err := codecFrameBytes(c)
		if err != nil {
			return fmt.Errorf("bench codec %s: %w", name, err)
		}
		fmt.Fprintf(stdout, "[bench] codec/stats/%-11s frame %6d bytes (%5.1f%% of wire)\n",
			name, n, 100*float64(n)/float64(wireBytes))
		res, err := bestOf(func() (testing.BenchmarkResult, error) { return benchCodec(c) })
		if err := add("codec/stats/"+name, "codec", name, 1, res, err); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "[bench] wrote %s (%d results, rev %s, %d CPUs)\n",
		path, len(report.Results), report.Rev, report.CPUs)
	return nil
}

// loadBenchReport reads a BENCH_*.json file.
func loadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runBenchDiff compares two reports: any matched benchmark whose
// ns/iter grew by more than threshold (fraction, e.g. 0.15) is a
// regression and the command errors. Benchmarks present on only one
// side are reported but not fatal — the suite is allowed to grow.
func runBenchDiff(oldPath, newPath string, threshold float64, stdout io.Writer) error {
	oldRep, err := loadBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadBenchReport(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]BenchResult, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	fmt.Fprintf(stdout, "benchdiff: %s (rev %s) -> %s (rev %s), threshold +%.0f%%\n",
		oldPath, oldRep.Rev, newPath, newRep.Rev, threshold*100)
	var regressions []string
	matched := 0
	for _, nr := range newRep.Results {
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(stdout, "  new      %-24s %12.0f ns/iter (no baseline)\n", nr.Name, nr.NsPerIter)
			continue
		}
		matched++
		delete(oldBy, nr.Name)
		ratio := nr.NsPerIter / or.NsPerIter
		status := "ok"
		if ratio > 1+threshold {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/iter (%+.1f%%)", nr.Name, or.NsPerIter, nr.NsPerIter, (ratio-1)*100))
		}
		fmt.Fprintf(stdout, "  %-8s %-24s %12.0f -> %-12.0f ns/iter (%+6.1f%%)\n",
			status, nr.Name, or.NsPerIter, nr.NsPerIter, (ratio-1)*100)
		// Migration-bytes gate: the rebalance rows ship a deterministic
		// amount of model/state per join, so growth past the threshold
		// means migration got chattier, not noisier.
		if or.MigrationBytes > 0 && nr.MigrationBytes > 0 {
			mratio := float64(nr.MigrationBytes) / float64(or.MigrationBytes)
			mstatus := "ok"
			if mratio > 1+threshold {
				mstatus = "REGRESSED"
				regressions = append(regressions,
					fmt.Sprintf("%s: migration %d -> %d bytes (%+.1f%%)", nr.Name, or.MigrationBytes, nr.MigrationBytes, (mratio-1)*100))
			}
			fmt.Fprintf(stdout, "  %-8s %-24s %12d -> %-12d migration bytes (%+6.1f%%)\n",
				mstatus, nr.Name, or.MigrationBytes, nr.MigrationBytes, (mratio-1)*100)
		}
		// Bytes-to-target gate: the solver rows ship a deterministic
		// amount of statistics before first touching the target loss;
		// growth past the threshold means the solver got chattier or
		// slower to converge.
		if or.StatsBytesToTarget > 0 && nr.StatsBytesToTarget > 0 {
			sratio := float64(nr.StatsBytesToTarget) / float64(or.StatsBytesToTarget)
			sstatus := "ok"
			if sratio > 1+threshold {
				sstatus = "REGRESSED"
				regressions = append(regressions,
					fmt.Sprintf("%s: stats-to-target %d -> %d bytes (%+.1f%%)", nr.Name, or.StatsBytesToTarget, nr.StatsBytesToTarget, (sratio-1)*100))
			}
			fmt.Fprintf(stdout, "  %-8s %-24s %12d -> %-12d stats bytes to target (%+6.1f%%)\n",
				sstatus, nr.Name, or.StatsBytesToTarget, nr.StatsBytesToTarget, (sratio-1)*100)
		}
		// Quantile gate: serve-load rows also carry latency quantiles, and
		// a regression can hide entirely in the tail (the p50 of a hedged
		// run barely moves when hedging breaks). Same threshold on p99.
		if or.P99Ns > 0 && nr.P99Ns > 0 {
			qratio := nr.P99Ns / or.P99Ns
			qstatus := "ok"
			if qratio > 1+threshold {
				qstatus = "REGRESSED"
				regressions = append(regressions,
					fmt.Sprintf("%s: p99 %.0f -> %.0f ns (%+.1f%%)", nr.Name, or.P99Ns, nr.P99Ns, (qratio-1)*100))
			}
			fmt.Fprintf(stdout, "  %-8s %-24s %12.0f -> %-12.0f ns/p99  (%+6.1f%%)\n",
				qstatus, nr.Name, or.P99Ns, nr.P99Ns, (qratio-1)*100)
		}
	}
	for name := range oldBy {
		fmt.Fprintf(stdout, "  gone     %-24s (present only in %s)\n", name, oldPath)
	}
	if matched == 0 {
		return fmt.Errorf("benchdiff: no benchmarks in common between %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(stdout, "REGRESSION %s\n", r)
		}
		return fmt.Errorf("benchdiff: %d benchmark(s) regressed more than %.0f%%", len(regressions), threshold*100)
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks within +%.0f%%\n", matched, threshold*100)
	return nil
}
