package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"time"

	columnsgd "columnsgd"
	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/dataset"
	"columnsgd/internal/opt"
	"columnsgd/internal/rowsgd"
	"columnsgd/internal/simnet"
	"columnsgd/internal/wire"
)

// hosting says where the workers of a pass live.
type hosting int

const (
	// hostProcs runs every worker as a real OS process: the measured mode.
	hostProcs hosting = iota
	// hostInProc serves the same sockets from goroutines of this process:
	// the smoke tests, and every traced pass (one clock for both sides).
	hostInProc
)

// inputs is everything a run generates from its seed for one workload.
// The program under test receives only these, never the seed's meaning.
type inputs struct {
	w    workload
	seed int64

	path string             // generated LibSVM file (FromFile workloads)
	pub  *columnsgd.Dataset // in-memory data for the public API (col-fm-local)
	ds   *dataset.Dataset   // the same rows for internal engines (row, traced col-fm-local)
	srv  *serveInputs       // serving workload
}

func (w workload) spec(seed int64) dataset.SyntheticSpec {
	return dataset.SyntheticSpec{Name: w.Name, N: w.N, Features: w.M, NNZPerRow: w.NNZ, Skew: w.Skew, Seed: seed}
}

// generate builds the inputs of w.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	if w.Kind == serving {
		srv, err := generateServe(w, seed, dir)
		in.srv = srv
		return in, err
	}
	ds, err := dataset.Generate(w.spec(seed))
	if err != nil {
		return nil, err
	}
	switch {
	case w.FromFile:
		in.path = filepath.Join(dir, w.Name+".libsvm")
		err = dataset.SaveLibSVMFile(in.path, ds)
	case w.Kind == rowTrain:
		in.ds = ds
	default:
		in.ds = ds
		in.pub, err = publicDataset(ds)
	}
	return in, err
}

// publicDataset hands generated rows to the public API, which has no
// accessor in the other direction.
func publicDataset(ds *dataset.Dataset) (*columnsgd.Dataset, error) {
	examples := make([]columnsgd.Example, ds.N())
	for i, p := range ds.Points {
		examples[i] = columnsgd.Example{Label: p.Label, Features: columnsgd.SparseVector{Indices: p.Features.Indices, Values: p.Features.Values}}
	}
	return columnsgd.FromExamples(examples, ds.NumFeatures)
}

// session is the part of a training engine a pass drives. Three engines
// sit behind it: the public columnsgd.Trainer (measured passes), a
// hand-built core.Engine (traced column passes) and rowsgd.Engine.
type session interface {
	Step() (float64, error)
	FullLoss() (float64, error)
	Accuracy() (float64, error)
	CommBytes() int64
}

type apiSession struct{ t *columnsgd.Trainer }

func (s apiSession) Step() (float64, error)     { return s.t.Step() }
func (s apiSession) FullLoss() (float64, error) { return s.t.FullLoss() }
func (s apiSession) Accuracy() (float64, error) { return s.t.Accuracy() }
func (s apiSession) CommBytes() int64           { return s.t.Trace().CommBytes() }

type coreSession struct{ e *core.Engine }

func (s coreSession) Step() (float64, error) {
	st, err := s.e.Step()
	return st.Loss, err
}
func (s coreSession) FullLoss() (float64, error) { return s.e.FullLoss() }
func (s coreSession) Accuracy() (float64, error) { return s.e.FullAccuracy() }
func (s coreSession) CommBytes() int64           { return s.e.Trace().CommBytes() }

type rowSession struct {
	e  *rowsgd.Engine
	ds *dataset.Dataset
}

func (s rowSession) Step() (float64, error)     { return s.e.Step() }
func (s rowSession) FullLoss() (float64, error) { return s.e.FullLoss() }
func (s rowSession) CommBytes() int64           { return s.e.Trace().CommBytes() }
func (s rowSession) Accuracy() (float64, error) {
	p, err := s.e.ExportModel()
	if err != nil {
		return 0, err
	}
	return core.Accuracy(s.e.Model(), p, s.ds), nil
}

// opened is a live session plus what the pass needs to tear it down and
// to attribute its cost.
type opened struct {
	sess    session
	setup   time.Duration // fleet connect + load, until the first Step can run
	pids    []int         // worker processes whose peak RSS belongs to the pass
	addrs   []string      // every socket the pass's workers listen on
	clients []cluster.Client
	svcs    []*cluster.Service // in-process worker services (traced passes)
	close   func()
}

var (
	coreMethods = []string{
		core.MethodInit, core.MethodLoad, core.MethodLoadDone, core.MethodComputeStats, core.MethodUpdate,
		core.MethodEvalStats, core.MethodEvalLoss, core.MethodEvalAccuracy, core.MethodGetParams,
		core.MethodSetParams, core.MethodResetPartition, core.MethodExportState, core.MethodImportState,
		core.MethodPing, core.MethodFailNext, core.MethodSolverUpdate, core.MethodSolverGrad,
		core.MethodSolverDir, core.MethodSolverLine, core.MethodSolverApply,
	}
	rowMethods = []string{
		rowsgd.MethodInit, rowsgd.MethodLoadRows, rowsgd.MethodLoadDone, rowsgd.MethodComputeGrad,
		rowsgd.MethodNeededDims, rowsgd.MethodSparseGrad, rowsgd.MethodLocalTrain, rowsgd.MethodSetModel,
		rowsgd.MethodGetModel, rowsgd.MethodEvalLoss, rowsgd.MethodExportState, rowsgd.MethodImportState,
		rowsgd.MethodLocalDelta, rowsgd.MethodFullGrad, rowsgd.MethodLineProbe,
	}
)

// staticProvider hands a fixed client set to core.NewEngine. The
// benchmark's workloads never lose a worker, so Restart is an error.
type staticProvider struct{ clients []cluster.Client }

func (p staticProvider) Clients() []cluster.Client { return p.clients }
func (p staticProvider) Restart(worker int) error {
	return fmt.Errorf("benchmark: worker %d failed; the fleet is not restartable", worker)
}

// closers collects tear-down functions and runs them in reverse order.
type closers struct{ fns []func() }

func (c *closers) add(f func()) { c.fns = append(c.fns, f) }

func (c *closers) run() {
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
	c.fns = nil
}

// hostServices serves one cluster.Service per worker on loopback sockets
// of this process and returns their addresses.
func hostServices(svcs []*cluster.Service, cl *closers) ([]string, error) {
	addrs := make([]string, len(svcs))
	for i, svc := range svcs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := cluster.NewServer(svc, lis)
		go srv.Serve() //nolint:errcheck // returns nil once closed
		cl.add(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs, nil
}

// dialAll connects one client per address, decorated when rec is set.
func dialAll(addrs []string, rec *recorder, cl *closers) ([]cluster.Client, error) {
	clients := make([]cluster.Client, len(addrs))
	for i, a := range addrs {
		c, err := cluster.DialCodec(a, wire.Default)
		if err != nil {
			return nil, err
		}
		cl.add(func() { c.Close() })
		clients[i] = c
		if rec != nil {
			clients[i] = &tracedClient{inner: c, rec: rec, worker: i}
		}
	}
	return clients, nil
}

// startProcs launches n worker processes and records them in o.
func startProcs(n int, start func() (*proc, error), fl *fleet, o *opened, cl *closers) error {
	for i := 0; i < n; i++ {
		p, err := start()
		if err != nil {
			return err
		}
		cl.add(func() { fl.stop(p) })
		o.pids = append(o.pids, p.cmd.Process.Pid)
		o.addrs = append(o.addrs, p.addr)
	}
	return nil
}

// apiConfig is the workload's configuration for the public API, and
// coreConfig the same thing hand-built for core.NewEngine. The traced
// pass checks their loss hashes against each other.
func (in *inputs) apiConfig(addrs []string) columnsgd.Config {
	w := in.w
	return columnsgd.Config{
		Model: columnsgd.ModelKind(w.Model), Factors: w.Factors, Workers: numWorkers,
		Optimizer: columnsgd.Optimizer(w.Optimizer), LearningRate: w.LR, BatchSize: w.Batch,
		Seed: in.seed, Pipeline: w.Pipeline, WorkerAddrs: addrs,
	}
}

func (in *inputs) coreConfig() core.Config {
	w := in.w
	return core.Config{
		Workers: numWorkers, ModelName: w.Model, ModelArg: w.Factors,
		Opt:       opt.Config{Algo: w.Optimizer, LR: w.LR},
		BatchSize: w.Batch, Seed: in.seed, Pipeline: w.Pipeline,
		Net: simnet.Cluster1().WithWorkers(numWorkers),
	}
}

func (in *inputs) rowConfig() rowsgd.Config {
	w := in.w
	return rowsgd.Config{
		System: rowsgd.MLlib, Workers: numWorkers, ModelName: w.Model,
		Opt:       opt.Config{Algo: w.Optimizer, LR: w.LR},
		BatchSize: w.Batch, Seed: in.seed,
	}
}

// open starts the workers of one pass and loads the data. With rec set
// the pass is traced: workers are hosted in-process behind wrapped
// services and every client is decorated.
func (in *inputs) open(fl *fleet, host hosting, rec *recorder) (o *opened, err error) {
	cl := &closers{}
	o = &opened{close: cl.run}
	defer func() {
		if err != nil {
			cl.run()
		}
	}()
	w := in.w
	if rec != nil {
		host = hostInProc
	}

	switch {
	case w.Kind == rowTrain:
		if host == hostProcs {
			err = startProcs(numWorkers, fl.startRowNode, fl, o, cl)
		} else {
			o.svcs = make([]*cluster.Service, numWorkers)
			for i := range o.svcs {
				o.svcs[i] = rowsgd.NewWorkerService()
				if rec != nil {
					o.svcs[i] = rec.wrapService(i, o.svcs[i], rowMethods)
				}
			}
			o.addrs, err = hostServices(o.svcs, cl)
		}
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if o.clients, err = dialAll(o.addrs, rec, cl); err != nil {
			return nil, err
		}
		e, err := rowsgd.NewEngine(in.rowConfig(), o.clients)
		if err != nil {
			return nil, err
		}
		if err := e.Load(in.ds); err != nil {
			return nil, err
		}
		o.setup = time.Since(t0)
		o.sess = rowSession{e, in.ds}

	case rec != nil: // traced ColumnSGD: core.Engine over wrapped services
		o.svcs = make([]*cluster.Service, numWorkers)
		for i := range o.svcs {
			o.svcs[i] = rec.wrapService(i, core.NewWorkerService(), coreMethods)
		}
		t0 := time.Now()
		if w.InProcess {
			local, err := cluster.NewLocalCodec(numWorkers, func(i int) (*cluster.Service, error) { return o.svcs[i], nil }, wire.Default)
			if err != nil {
				return nil, err
			}
			for i, c := range local.Clients() {
				o.clients = append(o.clients, &tracedClient{inner: c, rec: rec, worker: i})
			}
		} else {
			if o.addrs, err = hostServices(o.svcs, cl); err != nil {
				return nil, err
			}
			if o.clients, err = dialAll(o.addrs, rec, cl); err != nil {
				return nil, err
			}
		}
		e, err := core.NewEngine(in.coreConfig(), staticProvider{o.clients})
		if err != nil {
			return nil, err
		}
		if w.FromFile {
			err = e.LoadFile(in.path, w.M)
		} else {
			err = e.Load(in.ds)
		}
		if err != nil {
			return nil, err
		}
		o.setup = time.Since(t0)
		o.sess = coreSession{e}

	default: // measured ColumnSGD: the public API end to end
		switch {
		case w.InProcess:
		case host == hostProcs:
			if err = startProcs(numWorkers, fl.startNode, fl, o, cl); err != nil {
				return nil, err
			}
		default:
			for i := 0; i < numWorkers; i++ {
				ws, err := columnsgd.ServeWorker("127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				cl.add(func() { ws.Close() })
				o.addrs = append(o.addrs, ws.Addr())
			}
		}
		t0 := time.Now()
		var t *columnsgd.Trainer
		if w.FromFile {
			t, err = columnsgd.NewTrainerFromFile(in.path, w.M, in.apiConfig(o.addrs))
		} else {
			t, err = columnsgd.NewTrainer(in.pub, in.apiConfig(o.addrs))
		}
		if err != nil {
			return nil, err
		}
		o.setup = time.Since(t0)
		o.sess = apiSession{t}
	}
	return o, nil
}

func clientTotals(clients []cluster.Client) (msgs, bytes int64) {
	for _, c := range clients {
		msgs += c.Messages()
		bytes += c.Bytes()
	}
	return msgs, bytes
}

// passResult is what one pass of one workload measured.
type passResult struct {
	Setup     float64   // seconds
	Lat       []float64 // per round (or per open-loop request), nanoseconds
	Units     float64   // rows trained, or instances scored in the closed loop
	UnitsWall float64   // seconds those units took
	ToTarget  float64   // seconds to the target; NaN if never reached
	WireBytes float64   // per round
	WorkerRSS int64     // Σ VmHWM of the pass's child processes
	RSS       float64   // MB: the master's resident growth over the pass plus WorkerRSS
	PassWall  float64   // seconds, set-up and checks included
	Msgs      int64     // client messages over the timed rounds (traced passes)
	Bytes     int64     // client bytes over the timed rounds (traced passes)
	Attempted int
	Failed    int
	Hash      string // of the per-round loss bits (training) or margins (serving)
	FinalLoss float64
	Accuracy  float64
	Problems  []string // failed correctness checks
	Void      string   // why the pass's timings must not be used, if so

	serve *servePassExtra
}

func (p *passResult) problem(format string, args ...interface{}) {
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

// runTrainPass runs warm-up plus sz.Rounds timed rounds of one training
// workload on a fresh fleet. The fleet is still up when it returns (the
// layer probes of a traced pass need the loaded workers); the caller
// closes it.
func runTrainPass(in *inputs, sz sizing, fl *fleet, host hosting, rec *recorder) (*passResult, *opened, error) {
	o, err := in.open(fl, host, rec)
	if err != nil {
		return nil, nil, err
	}
	res := &passResult{Setup: o.setup.Seconds(), ToTarget: math.NaN(), Attempted: sz.Rounds}
	wd := newWatchdog(stallTimeout, fl.killAll)
	defer wd.stop()

	for i := 0; i < sz.Warm; i++ {
		if rec != nil {
			rec.beginRound(i - sz.Warm)
		}
		_, err := o.sess.Step()
		if rec != nil {
			rec.endRound()
		}
		if err != nil {
			o.close()
			return nil, nil, fmt.Errorf("warm-up round %d: %w", i, err)
		}
		wd.beat()
	}
	bytes0 := o.sess.CommBytes()
	msgs0, cbytes0 := clientTotals(o.clients)

	h := sha256.New()
	var bits [8]byte
	var window, target float64
	losses := make([]float64, 0, sz.Rounds)
	res.Lat = make([]float64, 0, sz.Rounds)
	done := 0
	start := time.Now()
	for i := 0; i < sz.Rounds; i++ {
		if rec != nil {
			rec.beginRound(i)
		}
		t := time.Now()
		loss, err := o.sess.Step()
		d := time.Since(t)
		if rec != nil {
			rec.endRound()
		}
		if err != nil {
			// A failed round ends the pass: the engine's state is gone.
			res.Failed = sz.Rounds - i
			res.problem("round %d: %v", i, err)
			break
		}
		wd.beat()
		done++
		res.Lat = append(res.Lat, float64(d))
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(loss))
		h.Write(bits[:])
		losses = append(losses, loss)
		window += loss
		if i >= trailWindow {
			window -= losses[i-trailWindow]
		}
		if i == trailWindow-1 {
			target = in.w.TargetRatio * window / trailWindow
		}
		if i >= trailWindow-1 && math.IsNaN(res.ToTarget) && window/trailWindow <= target {
			res.ToTarget = time.Since(start).Seconds()
		}
	}
	wall := time.Since(start).Seconds()
	if rec != nil {
		rec.finish()
	}
	msgs1, cbytes1 := clientTotals(o.clients)
	res.Msgs, res.Bytes = msgs1-msgs0, cbytes1-cbytes0
	res.Units, res.UnitsWall = float64(done*in.w.Batch), wall
	res.Hash = hex.EncodeToString(h.Sum(nil))
	if done > 0 {
		res.WireBytes = float64(o.sess.CommBytes()-bytes0) / float64(done)
	}
	if res.Failed == 0 {
		if math.IsNaN(res.ToTarget) {
			res.problem("trailing-%d loss never reached target %g (last %g)", trailWindow, target, window/trailWindow)
		}
		if res.FinalLoss, err = o.sess.FullLoss(); err != nil {
			res.problem("final loss: %v", err)
		} else if !(res.FinalLoss <= in.w.LossCeiling) {
			res.problem("final loss %g above ceiling %g", res.FinalLoss, in.w.LossCeiling)
		}
		if res.Accuracy, err = o.sess.Accuracy(); err != nil {
			res.problem("accuracy: %v", err)
		} else if !(res.Accuracy >= in.w.AccFloor) {
			res.problem("accuracy %g below floor %g", res.Accuracy, in.w.AccFloor)
		}
	}
	for _, pid := range o.pids {
		rss, err := peakRSS(pid)
		if err != nil && res.Failed == 0 {
			res.problem("worker rss: %v", err)
		}
		res.WorkerRSS += rss
	}
	return res, o, nil
}
