package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	columnsgd "columnsgd"
	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/dataset"
	"columnsgd/internal/driver"
	"columnsgd/internal/model"
	"columnsgd/internal/opt"
	"columnsgd/internal/par"
	"columnsgd/internal/partition"
	"columnsgd/internal/rowsgd"
	"columnsgd/internal/vec"
	"columnsgd/internal/wire"
)

// probeBudget is how long one micro-probe measures; probeReps how many
// times it does so. A probe reports the median of its repetitions. The
// smoke tests shrink the budget.
var probeBudget = 20 * time.Millisecond

const probeReps = 5

// timeOp returns fn's cost in nanoseconds per call: the median over
// probeReps batches, each sized to last about probeBudget.
func timeOp(fn func()) float64 {
	fn() // warm caches and pools
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	n := 1
	if one < probeBudget {
		n = int(probeBudget/(one+1)) + 1
	}
	per := make([]float64, probeReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

func allocsOf(fn func()) float64 { return testing.AllocsPerRun(20, fn) }

// batchGrain mirrors model.batchGrain (unexported): the row grain the
// parallel kernels chunk a batch at. Only model.grad_scratch_bytes and
// the par probes depend on it.
func batchGrain(n int) int {
	const minGrain, maxChunks = 16, 64
	g := (n + maxChunks - 1) / maxChunks
	if g < minGrain {
		g = minGrain
	}
	return g
}

type layerMetrics map[string]float64

// firstRows returns the first n generated rows of a training workload.
func (in *inputs) firstRows(n int) ([]dataset.Point, error) {
	if in.ds != nil {
		if n > in.ds.N() {
			n = in.ds.N()
		}
		return in.ds.Points[:n], nil
	}
	br, err := dataset.OpenBlockFile(in.path, n, in.w.M)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	blk, err := br.Next()
	if err != nil {
		return nil, err
	}
	if blk == nil {
		return nil, fmt.Errorf("%s is empty", in.path)
	}
	return blk.Points, nil
}

// noopClient answers every call at once: what is left of a fan-out is
// the driver's own cost.
type noopClient struct{}

func (noopClient) Call(string, interface{}, interface{}) error { return nil }
func (noopClient) Bytes() int64                                { return 0 }
func (noopClient) Messages() int64                             { return 0 }
func (noopClient) Close() error                                { return nil }

// probeTraining fills the per-layer metrics of one training workload from
// its traced pass: self-times out of the span tree, then micro-probes of
// each layer at the shapes the workload gave it.
func probeTraining(in *inputs, o *opened, rec *recorder, st traceStats, tp *passResult) (layerMetrics, error) {
	w := in.w
	lm := layerMetrics{}

	// Span tree.
	self := make([]float64, len(st.Rounds))
	for i, a := range st.Rounds {
		self[i] = a.MasterSelf
	}
	statsMethod, updateMethod := core.MethodComputeStats, core.MethodUpdate
	if w.Kind == rowTrain {
		statsMethod, updateMethod = rowsgd.MethodComputeGrad, rowsgd.MethodComputeGrad
		lm["rowsgd.master_self_us"] = us(median(self))
		lm["rowsgd.worker_grad_us"] = us(median(st.Handle[statsMethod]))
	} else {
		lm["core.master_self_us"] = us(median(self))
		lm["core.worker_stats_us"] = us(median(st.Handle[statsMethod]))
		lm["core.worker_update_us"] = us(median(st.Handle[updateMethod]))
		lm["core.load_s"] = o.setup.Seconds()
	}
	lm["cluster.transport_us"] = us(median(st.Transport))
	lm["driver.gather_skew_us"] = us(median(st.Skew))
	rounds := float64(len(tp.Lat))
	calls := float64(tp.Msgs) / 2
	lm["cluster.calls_per_round"] = calls / rounds
	lm["cluster.bytes_per_call"] = float64(tp.Bytes) / calls

	// Codec, on the frames the workload really sent: the gather-direction
	// response ("stats") and the broadcast-direction request ("update").
	sc, uc := rec.capture(statsMethod), rec.capture(updateMethod)
	if sc == nil || uc == nil {
		return nil, fmt.Errorf("traced pass captured no %s/%s frames", statsMethod, updateMethod)
	}
	codec := rec.codec
	lm["wire.stats_enc_ns"] = timeOp(func() { cluster.EncodeResponseFrame(codec, sc.reply, "") })          //nolint:errcheck
	lm["wire.stats_dec_ns"] = timeOp(func() { cluster.DecodeResponseFrame(codec, sc.resp) })               //nolint:errcheck
	lm["wire.update_enc_ns"] = timeOp(func() { cluster.EncodeRequestFrame(codec, updateMethod, uc.args) }) //nolint:errcheck
	lm["wire.update_dec_ns"] = timeOp(func() { cluster.DecodeRequestFrame(codec, uc.req) })                //nolint:errcheck
	lm["wire.frame_bytes"] = float64(len(sc.resp) + len(uc.req))
	lm["wire.frame_allocs"] = allocsOf(func() {
		cluster.EncodeResponseFrame(codec, sc.reply, "")         //nolint:errcheck
		cluster.DecodeResponseFrame(codec, sc.resp)              //nolint:errcheck
		cluster.EncodeRequestFrame(codec, updateMethod, uc.args) //nolint:errcheck
		cluster.DecodeRequestFrame(codec, uc.req)                //nolint:errcheck
	})
	if w.Kind == rowTrain {
		lm["rowsgd.model_frame_bytes"] = float64(len(uc.req))
	}

	rtt, err := probeRTT(uc.args, sc.reply, codec, w.InProcess)
	if err != nil {
		return nil, err
	}
	lm["cluster.rtt_us"] = us(rtt)

	// Driver fan-out over clients that cost nothing.
	noops := make([]cluster.Client, numWorkers)
	ids := make([]int, numWorkers)
	for i := range noops {
		noops[i], ids[i] = noopClient{}, i
	}
	drv := driver.New(noops, driver.Options{})
	fan := func() {
		drv.Gather(ids, nil, func(int, int) driver.Call { return driver.Call{Method: "noop"} }) //nolint:errcheck
	}
	lm["driver.fanout_us"] = us(timeOp(fan))
	lm["driver.fanout_allocs"] = allocsOf(fan)

	// Worker dispatch seam: one statistics call plus one update call on
	// worker 0, which still holds the pass's data. The pass is over, so
	// the extra updates disturb nothing.
	if w.Kind == colTrain {
		lm["core.worker_allocs"] = allocsOf(func() {
			o.svcs[0].Dispatch(statsMethod, sc.args)  //nolint:errcheck
			o.svcs[0].Dispatch(updateMethod, uc.args) //nolint:errcheck
		})
	}

	if err := probeKernels(in, lm); err != nil {
		return nil, err
	}
	if w.FromFile {
		if err := probeLoad(in, lm); err != nil {
			return nil, err
		}
	}
	return lm, nil
}

// probeRTT times Call of a do-nothing method whose request and response
// are the workload's own frames, over the workload's transport. What it
// measures beyond the codec probes is the socket and the framing.
func probeRTT(args, reply interface{}, codec wire.Codec, inProcess bool) (float64, error) {
	svc := cluster.NewService()
	svc.Register("bench.noop", func(interface{}) (interface{}, error) { return reply, nil })
	var client cluster.Client
	if inProcess {
		local, err := cluster.NewLocalCodec(1, func(int) (*cluster.Service, error) { return svc, nil }, codec)
		if err != nil {
			return 0, err
		}
		client = local.Clients()[0]
	} else {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		srv := cluster.NewServer(svc, lis)
		go srv.Serve() //nolint:errcheck // returns nil once closed
		defer srv.Close()
		if client, err = cluster.DialCodec(srv.Addr(), codec); err != nil {
			return 0, err
		}
	}
	defer client.Close()
	var callErr error
	rtt := timeOp(func() {
		if err := client.Call("bench.noop", args, nil); err != nil {
			callErr = err
		}
	})
	return rtt, callErr
}

// probeKernels times model, opt, par and vec at the batch and partition
// width one worker sees per round.
func probeKernels(in *inputs, lm layerMetrics) error {
	w := in.w
	mdl, err := model.New(w.Model, w.Factors)
	if err != nil {
		return err
	}
	rowsPerWorker, width := w.Batch, 0
	var slice func(vec.Sparse) vec.Sparse
	if w.Kind == rowTrain {
		// A row worker takes B/K full-width rows against the whole model.
		rowsPerWorker, width = w.Batch/numWorkers, w.M
		slice = func(x vec.Sparse) vec.Sparse { return x }
	} else {
		scheme, err := partition.NewRoundRobin(w.M, numWorkers) // core's default scheme
		if err != nil {
			return err
		}
		width = scheme.PartSize(0)
		slice = func(x vec.Sparse) vec.Sparse { return partition.SplitRow(x, scheme)[0] }
	}
	pts, err := in.firstRows(rowsPerWorker)
	if err != nil {
		return err
	}
	batch := model.Batch{Rows: make([]vec.Sparse, len(pts)), Labels: make([]float64, len(pts))}
	var fullNNZ int64
	for i, p := range pts {
		batch.Rows[i], batch.Labels[i] = slice(p.Features), p.Label
		fullNNZ += int64(p.Features.NNZ())
	}
	lm["model.nnz_per_round"] = float64(fullNNZ)
	if w.Kind == rowTrain {
		lm["model.nnz_per_round"] *= numWorkers // every worker has its own B/K rows
	}

	params := model.NewParams(mdl.ParamRows(), width)
	mdl.Init(params, rand.New(rand.NewSource(in.seed)))
	grad := model.NewParams(mdl.ParamRows(), width)
	pool := par.New(0)
	defer pool.Shutdown()
	var stats []float64
	lm["model.stats_us"] = us(timeOp(func() { stats = model.ParallelStats(pool, mdl, params, batch, stats) }))
	lm["model.grad_us"] = us(timeOp(func() { model.ParallelGradient(pool, mdl, params, batch, stats, grad) }))

	n := batch.Len()
	grain := batchGrain(n)
	chunks := par.NumChunks(n, grain)
	if chunks > 1 {
		// ParallelGradient gives every chunk a dense gradient block.
		lm["model.grad_scratch_bytes"] = float64(chunks * mdl.ParamRows() * width * 8)
		empty := func() { pool.Run(n, grain, func(int, int, int) {}) }
		lm["par.dispatch_us"] = us(timeOp(empty))
		lm["par.dispatch_allocs"] = allocsOf(empty)
	}

	o, err := opt.New(opt.Config{Algo: w.Optimizer, LR: w.LR})
	if err != nil {
		return err
	}
	var applyErr error
	lm["opt.apply_us"] = us(timeOp(func() {
		if err := o.Apply(params, grad); err != nil {
			applyErr = err
		}
	}))
	if applyErr != nil {
		return applyErr
	}

	// Axpy reads dst and src and writes dst: 24 bytes per element.
	dst, src := make([]float64, width), make([]float64, width)
	axpy := timeOp(func() { vec.Axpy(dst, 0.5, src) })
	lm["vec.axpy_gb_per_s"] = float64(24*width) / axpy
	var partNNZ int
	for _, r := range batch.Rows {
		partNNZ += r.NNZ()
	}
	var sink float64
	dot := timeOp(func() {
		for _, r := range batch.Rows {
			sink += r.Dot(params.W[0])
		}
	})
	_ = sink
	if partNNZ > 0 {
		lm["vec.sparse_dot_ns_per_nnz"] = dot / float64(partNNZ)
	}
	return nil
}

// probeLoad times the loading pipeline's two stages alone: the LibSVM
// block parser, and row-to-column dispatch of already-parsed blocks into
// a sink that drops them.
func probeLoad(in *inputs, lm layerMetrics) error {
	const blockSize = 1024 // core's default BlockSize
	br, err := dataset.OpenBlockFile(in.path, blockSize, in.w.M)
	if err != nil {
		return err
	}
	defer br.Close()
	var blocks []*dataset.Block
	t0 := time.Now()
	for {
		blk, err := br.Next()
		if err != nil {
			return err
		}
		if blk == nil {
			break
		}
		blocks = append(blocks, blk)
	}
	lm["dataset.parse_rows_per_s"] = float64(br.RowsRead()) / time.Since(t0).Seconds()

	scheme, err := partition.NewRoundRobin(in.w.M, numWorkers)
	if err != nil {
		return err
	}
	i := 0
	next := func() (*dataset.Block, error) {
		if i == len(blocks) {
			return nil, nil
		}
		i++
		return blocks[i-1], nil
	}
	t0 = time.Now()
	_, ds, err := partition.DispatchStream(next, scheme, func(int, *partition.Workset) error { return nil })
	if err != nil {
		return err
	}
	lm["partition.dispatch_nnz_per_s"] = float64(ds.NNZ) / time.Since(t0).Seconds()
	return nil
}

// probeServing fills the serving workload's per-layer metrics from the
// live process's /metricz and from an in-process server on the same
// checkpoint and bodies.
func probeServing(in *inputs, tp *passResult) (layerMetrics, error) {
	lm := layerMetrics{}
	ex := tp.serve
	lm["serve.queue_us"] = ex.After.QueueP50Micros
	lm["serve.score_us"] = ex.After.ScoreP50Micros
	lm["serve.batch_mean"] = ex.After.BatchMean
	lm["serve.fanout_bytes_per_req"] = tp.WireBytes
	lm["gen.late_p99_ms"] = ex.LateP99MS
	lm["persist.save_ms"] = ms(float64(in.srv.saveDur))

	srv, err := columnsgd.NewServer(columnsgd.ServeConfig{Model: columnsgd.ModelKind(in.w.Model), Shards: servShards, MaxWait: serveMaxWait})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	t0 := time.Now()
	if _, err := srv.LoadModelFile(in.srv.model); err != nil {
		return nil, err
	}
	lm["persist.load_ms"] = ms(float64(time.Since(t0)))

	// One request's worth of Predict calls, issued the way the HTTP
	// handler issues them: all instances at once.
	var (
		errMu      sync.Mutex
		predictErr error
	)
	request := func(rows []vec.Sparse) {
		var wg sync.WaitGroup
		for _, r := range rows {
			wg.Add(1)
			go func(r vec.Sparse) {
				defer wg.Done()
				_, err := srv.Predict(context.Background(), columnsgd.SparseVector{Indices: r.Indices, Values: r.Values})
				if err != nil {
					errMu.Lock()
					predictErr = err
					errMu.Unlock()
				}
			}(r)
		}
		wg.Wait()
	}
	n := len(in.srv.rows)
	if n > 300 {
		n = 300
	}
	direct := make([]float64, n)
	for i := range direct {
		t0 := time.Now()
		request(in.srv.rows[i])
		direct[i] = float64(time.Since(t0))
	}
	if predictErr != nil {
		return nil, predictErr
	}
	httpP50 := quantile(sorted(tp.Lat), 0.5)
	lm["serve.http_overhead_us"] = us(httpP50 - median(direct))
	lm["serve.predict_allocs"] = allocsOf(func() { request(in.srv.rows[0]) })
	return lm, nil
}
