package main

import "math"

// kind selects the code path a workload drives.
type kind int

const (
	colTrain kind = iota // ColumnSGD through the public columnsgd API
	rowTrain             // rowsgd baseline engine over cluster.Server workers
	serving              // colsgd-serve over HTTP
)

// Fleet shape. These belong to the workload definitions and do not scale
// with the host: a bigger box must not silently change what is measured.
const (
	numWorkers  = 2
	numConns    = 2
	servShards  = 2
	warmRounds  = 50
	warmReqs    = 200
	instPerReq  = 16
	trailWindow = 50 // rounds averaged for the time-to-target crossing
)

// workload is one fixed set of inputs. Rates are the reference box's
// (see README): a pass runs rate × seconds / passes units of work, so a
// pass is a fixed amount of work for a given -seconds, never a fixed time.
type workload struct {
	Name string
	Why  string
	Kind kind

	// Data shape.
	N, M, NNZ int
	Skew      float64

	// Training shape.
	Model     string
	Factors   int
	Batch     int
	LR        float64
	Optimizer string
	Pipeline  bool
	InProcess bool // library-default in-process workers (no sockets)
	FromFile  bool // stream a generated LibSVM file through NewTrainerFromFile

	// RoundsPerSec is the reference rate that sizes a pass.
	RoundsPerSec float64

	// Pinned checks. The time-to-target clock stops when the trailing-window
	// mini-batch loss first falls to TargetRatio × its value over the first
	// timed window: generated data sets differ in difficulty from seed to
	// seed, and an absolute loss would be crossed anywhere between round 50
	// and round 400 (see README). LossCeiling and AccFloor bound the final
	// model; they hold for every seed and catch training that went wrong.
	TargetRatio, LossCeiling, AccFloor float64

	// Serving shape: open-loop rate (phase A) and closed-loop reference
	// throughput (phase B), both in requests per second.
	OpenRate, ClosedRate float64
}

var workloads = []workload{
	{
		Name: "col-lr-wide-tcp", Kind: colTrain,
		Why: "Paper regime: wide sparse LR (m=1M, B=256) on 2 colsgd-node processes; any O(m/K) per-round cost dominates here and vanishes on col-lr-narrow-tcp; setup_s is a real LibSVM parse and socket load",
		N:   100000, M: 1000000, NNZ: 32, Skew: 1,
		Model: "lr", Batch: 256, LR: 0.5, Optimizer: "sgd", Pipeline: true, FromFile: true,
		RoundsPerSec: 70,
		TargetRatio:  0.99, LossCeiling: 0.64, AccFloor: 0.60,
	},
	{
		Name: "col-lr-narrow-tcp", Kind: colTrain,
		Why: "Orchestration-bound: same fleet and code path at m=16384, B=64; kernels take microseconds, so driver fan-out, cluster framing, wire codec and master bookkeeping are the round",
		N:   20000, M: 16384, NNZ: 16, Skew: 1,
		Model: "lr", Batch: 64, LR: 0.5, Optimizer: "sgd", Pipeline: true, FromFile: true,
		RoundsPerSec: 2300,
		TargetRatio:  0.5, LossCeiling: 0.60, AccFloor: 0.70,
	},
	{
		Name: "col-fm-local", Kind: colTrain,
		Why: "Kernel-bound: FM (8 factors), AdaGrad, B=1024 on in-process workers; model kernels via the par pool, vec and a stateful optimizer dominate; 9216-value frames, channel transport, no pipelining",
		N:   50000, M: 8192, NNZ: 64, Skew: 1,
		Model: "fm", Factors: 8, Batch: 1024, LR: 0.05, Optimizer: "adagrad", InProcess: true,
		RoundsPerSec: 190,
		TargetRatio:  0.8, LossCeiling: 0.30, AccFloor: 0.90,
	},
	{
		Name: "row-mllib-tcp", Kind: rowTrain,
		Why: "The paper's baseline and the big-frame side of wire/cluster/driver: rowsgd MLlib LR sends a 0.8 MB dense model to 2 worker processes every round, bandwidth-bound where col rounds are latency-bound",
		N:   50000, M: 100000, NNZ: 32, Skew: 1,
		Model: "lr", Batch: 256, LR: 0.5, Optimizer: "sgd",
		RoundsPerSec: 250,
		TargetRatio:  0.9, LossCeiling: 0.60, AccFloor: 0.65,
	},
	{
		Name: "serve-lr-http", Kind: serving,
		Why: "Serving leg: a real colsgd-serve -shards 2 process on a checkpoint saved in set-up; 16x32-nnz requests on 2 keep-alive connections, open loop at 300 req/s then closed loop with 2 callers",
		N:   20000, M: 100000, NNZ: 32, Skew: 1,
		Model: "lr", Batch: 256, LR: 0.5, Optimizer: "sgd",
		OpenRate: 300, ClosedRate: 1400,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny shrinks a workload to smoke-test size. It keeps the code path and
// drops the pinned quality checks, which only hold at full size.
func (w workload) tiny() workload {
	w.N, w.M, w.NNZ = 600, 512, 8
	if w.Batch > 64 {
		w.Batch = 64
	}
	w.TargetRatio, w.LossCeiling, w.AccFloor = math.Inf(1), math.Inf(1), 0
	return w
}

// sizing is the amount of work in one pass.
type sizing struct {
	Warm   int // untimed warm-up rounds (or requests)
	Rounds int // timed rounds per pass (training)
	OpenN  int // phase A requests per pass (serving)
	ClosdN int // phase B requests per caller per pass (serving)
}

func (w workload) size(seconds float64, passes int) sizing {
	per := seconds / float64(passes)
	s := sizing{Warm: warmRounds}
	if w.Kind == serving {
		// Phase A and phase B each get half of the pass.
		s.Warm = warmReqs
		s.OpenN = atLeast(int(math.Round(w.OpenRate*per/2)), 2*numConns)
		s.ClosdN = atLeast(int(math.Round(w.ClosedRate*per/2/numConns)), 2)
		return s
	}
	s.Rounds = atLeast(int(math.Round(w.RoundsPerSec*per)), trailWindow+1)
	return s
}

func atLeast(v, min int) int {
	if v < min {
		return min
	}
	return v
}

// metricDef names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every metric; for serve-lr-http a "round" is one request (see README).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"round_p50_ms", "ms", "lower", 0.25},
	{"round_p99_ms", "ms", "lower", 0.25},
	{"time_to_target_s", "s", "lower", 0.25},
	{"wire_bytes_per_round", "B", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer lists the traced run's numbers, named <module>.<what>_<unit>.
// A layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{Name: "core.master_self_us", Unit: "us", Better: "lower"},
	{Name: "core.worker_stats_us", Unit: "us", Better: "lower"},
	{Name: "core.worker_update_us", Unit: "us", Better: "lower"},
	{Name: "core.worker_allocs", Unit: "count", Better: "lower"},
	{Name: "core.load_s", Unit: "s", Better: "lower"},
	{Name: "cluster.transport_us", Unit: "us", Better: "lower"},
	{Name: "cluster.calls_per_round", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "cluster.rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.stats_enc_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.stats_dec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.update_enc_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.update_dec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.frame_allocs", Unit: "count", Better: "lower"},
	{Name: "driver.fanout_us", Unit: "us", Better: "lower"},
	{Name: "driver.fanout_allocs", Unit: "count", Better: "lower"},
	{Name: "driver.gather_skew_us", Unit: "us", Better: "lower"},
	{Name: "model.stats_us", Unit: "us", Better: "lower"},
	{Name: "model.grad_us", Unit: "us", Better: "lower"},
	{Name: "model.nnz_per_round", Unit: "count", Better: "lower"},
	{Name: "model.grad_scratch_bytes", Unit: "B", Better: "lower"},
	{Name: "opt.apply_us", Unit: "us", Better: "lower"},
	{Name: "par.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "par.dispatch_allocs", Unit: "count", Better: "lower"},
	{Name: "vec.axpy_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "vec.sparse_dot_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "dataset.parse_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "partition.dispatch_nnz_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rowsgd.master_self_us", Unit: "us", Better: "lower"},
	{Name: "rowsgd.worker_grad_us", Unit: "us", Better: "lower"},
	{Name: "rowsgd.model_frame_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_us", Unit: "us", Better: "lower"},
	{Name: "serve.score_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.fanout_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "serve.predict_allocs", Unit: "count", Better: "lower"},
	{Name: "persist.save_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.load_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
}
