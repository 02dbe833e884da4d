// Package serve implements ColumnServe, the online-inference counterpart
// of the training engine: the same column partitioning that lets training
// exchange only O(batch) statistics is reused at query time. A frontend
// micro-batches incoming examples, column-splits each batch under a
// partition.Scheme, fans the shard slices out to scorers that compute
// partial statistics with the shared model kernels, sums the partials,
// and maps the aggregated statistics to predictions — so sharded serving
// agrees with scoring the assembled model locally.
//
// Models are published as immutable snapshots swapped in atomically: a
// batch pins the snapshot it started with, which makes hot reload safe
// for in-flight requests, and a failed reload simply keeps the last good
// snapshot serving (degraded mode).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"columnsgd/internal/driver"
	"columnsgd/internal/model"
	"columnsgd/internal/par"
	"columnsgd/internal/partition"
	"columnsgd/internal/persist"
	"columnsgd/internal/vec"
	"columnsgd/internal/wire"
)

// Errors returned by the admission path.
var (
	// ErrNoModel means no model version has been installed yet.
	ErrNoModel = errors.New("serve: no model installed")
	// ErrClosed means the server is draining or closed.
	ErrClosed = errors.New("serve: server closed")
	// ErrQueueFull means the admission queue rejected the request.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrOverloaded means the in-flight budget (MaxInFlight) rejected the
	// request at admission — a fast typed reject, not a timeout.
	ErrOverloaded = errors.New("serve: overloaded")
)

// Errors classifying why a shard fan-out call ultimately failed. Both
// wrap the underlying cause, so errors.Is still sees e.g.
// context.DeadlineExceeded through ErrShardDeadline.
var (
	// ErrShardDeadline means the per-shard deadline expired on the final
	// attempt: the shard was too slow, not broken.
	ErrShardDeadline = errors.New("serve: shard deadline expired")
	// ErrReplicasExhausted means every attempt failed with a non-deadline
	// error: the shard group's replicas are broken, not slow.
	ErrReplicasExhausted = errors.New("serve: shard replicas exhausted")
)

// Options configures a Server.
type Options struct {
	// ModelName/ModelArg select the model kernels (see model.New);
	// default "lr".
	ModelName string
	ModelArg  int
	// Shards is the number of column shards (default 4).
	Shards int
	// Replicas is the number of scorer replicas per column shard (default
	// 1). Replicas are stateless — every call carries the pinned
	// snapshot's shard block — so a shard group balances calls over its
	// replicas (power-of-two-choices on in-flight count) and any replica
	// returns value-identical statistics.
	Replicas int
	// HedgeAfter, when positive and Replicas > 1, fires a hedged call on a
	// second replica if the first has not answered within the delay
	// (measured on Clock); the first response wins and the loser is
	// cancelled. Zero disables hedging.
	HedgeAfter time.Duration
	// MaxInFlight bounds requests admitted but not yet answered; beyond
	// it Predict fast-rejects with ErrOverloaded instead of queueing into
	// collapse. Zero disables the budget (QueueCap still bounds memory).
	MaxInFlight int
	// Scheme selects column partitioning: "range", "roundrobin" (default),
	// or "hash" — same choices as training.
	Scheme string
	// MaxBatch caps a micro-batch (default 64).
	MaxBatch int
	// MaxWait bounds how long the batcher holds the first request of a
	// batch while it fills (default 2ms).
	MaxWait time.Duration
	// QueueCap bounds the admission queue; requests beyond it are
	// rejected with ErrQueueFull (default 4096).
	QueueCap int
	// ShardTimeout bounds one shard scoring call; a timed-out or failed
	// call is retried once (default 250ms).
	ShardTimeout time.Duration
	// MaxConcurrent bounds batches scored at once (default 16). When all
	// slots are busy the batcher stalls, the queue fills, and admission
	// rejects — bounded work under overload instead of goroutine pileup.
	MaxConcurrent int
	// Parallelism sizes the deterministic compute pool shared by the
	// in-process LocalScorers: 0 means GOMAXPROCS, 1 scores inline.
	// Results are bit-identical for every value (internal/par contract).
	Parallelism int
	// Codec selects the statistics codec whose encoded sizes the fan-out
	// byte accounting models ("wire", "wire-f32", "wire-f16");
	// empty means the default compact lossless codec. Lossy codecs only
	// shrink the modeled statistics bytes; the scoring width is set by
	// Precision, not the codec.
	Codec string
	// Precision selects the scoring width: "" or "f64" runs the float64
	// kernels, "f32" the float32 twins — shard parameter blocks are
	// narrowed once per install and batches are column-split straight
	// into float32 rows, mirroring the training engines' precision knob.
	// Aggregation across shards and predictions stay float64 (partials
	// widen exactly). Custom NewScorer implementations must consume the
	// f32 request fields when this is "f32" (see ShardRequest).
	Precision string
	// NewScorer overrides the per-shard scorer (tests, remote shards).
	// nil uses the in-process LocalScorer. With Replicas > 1 it is called
	// once per replica; use NewReplica to distinguish them.
	NewScorer func(shard int) Scorer
	// NewReplica overrides the per-replica scorer (chaos decorators,
	// straggler injection). It takes precedence over NewScorer; nil falls
	// back to NewScorer, then to the in-process LocalScorer.
	NewReplica func(shard, replica int) Scorer
	// Clock overrides the time source for the batcher's MaxWait timer
	// and latency stamps (tests inject a fake clock; nil uses real time).
	Clock Clock
}

func (o Options) normalized() Options {
	if o.ModelName == "" {
		o.ModelName = "lr"
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Scheme == "" {
		o.Scheme = "roundrobin"
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4096
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 250 * time.Millisecond
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 16
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// snapshot is one immutable published model version. Scoring a batch
// loads the pointer once and works entirely off the snapshot, so a
// concurrent Install never disturbs it.
type snapshot struct {
	version  int64
	features int
	scheme   partition.Scheme
	shards   []*model.Params
	// shards32 holds the float32-narrowed shard blocks under Precision
	// "f32" (built once per install); nil under f64.
	shards32 []*model.Params32
	// groups are the scorer groups this version fans out to — snapshot-
	// scoped so a live Reshard swaps partitioning and scorers together
	// while batches pinned to the old version finish on the old groups.
	groups []*shardGroup
}

// Prediction is one scored example.
type Prediction struct {
	// Label is the predicted label: ±1 for binary models, the class index
	// for multinomial, the regression value for least squares.
	Label float64
	// Margin is the first aggregated statistic — the raw model score for
	// GLMs (monotone in the margin for every built-in binary model).
	Margin float64
	// Version is the model version that scored the request.
	Version int64
}

type outcome struct {
	pred Prediction
	err  error
}

type request struct {
	row  vec.Sparse
	enq  time.Time
	done chan outcome
}

// Server is the ColumnServe frontend: admission queue, micro-batcher,
// shard fan-out, and metrics.
type Server struct {
	opts  Options
	codec wire.Codec
	mdl   model.Model
	met   *Metrics

	// installMu serializes Install/Reshard: both mutate the retained
	// rows, the shard count, and the groups, then publish a snapshot
	// built from them. The scoring path never takes it.
	installMu  sync.Mutex
	rows       [][]float64 // last installed parameter rows (reshard source)
	shards     int         // current shard count
	groups     []*shardGroup
	newReplica func(shard, rep int) Scorer

	cur         atomic.Pointer[snapshot]
	nextVersion atomic.Int64

	// inflightReqs is the admission budget: requests admitted but not yet
	// answered. peakInFlight records its high-water mark (the admission
	// property tests pin it at MaxInFlight).
	inflightReqs atomic.Int64
	peakInFlight atomic.Int64

	mu       sync.RWMutex // guards closed and queue close
	closed   bool
	pool     *par.Pool // shared LocalScorer compute pool; nil with NewScorer
	queue    chan *request
	slots    chan struct{} // in-flight batch semaphore
	loopDone chan struct{}
	inflight sync.WaitGroup
}

// New builds a server. No model is installed yet: Predict returns
// ErrNoModel until the first Install/InstallFile.
func New(opts Options) (*Server, error) {
	opts = opts.normalized()
	codec, err := wire.ParseCodec(opts.Codec)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	mdl, err := model.New(opts.ModelName, opts.ModelArg)
	if err != nil {
		return nil, err
	}
	switch opts.Precision {
	case "", "f64", "f32":
	default:
		return nil, fmt.Errorf("serve: unknown precision %q (want \"f64\" or \"f32\")", opts.Precision)
	}
	if opts.Precision == "f32" {
		if _, ok := model.Kernel32Of(mdl); !ok {
			return nil, fmt.Errorf("serve: model %s has no float32 kernels; Precision %q needs model.Kernel32", mdl.Name(), opts.Precision)
		}
	}
	s := &Server{
		opts:     opts,
		codec:    codec,
		mdl:      mdl,
		met:      NewMetrics(),
		queue:    make(chan *request, opts.QueueCap),
		slots:    make(chan struct{}, opts.MaxConcurrent),
		loopDone: make(chan struct{}),
	}
	var pool *par.Pool
	newReplica := func(shard, rep int) Scorer {
		switch {
		case opts.NewReplica != nil:
			return opts.NewReplica(shard, rep)
		case opts.NewScorer != nil:
			return opts.NewScorer(shard)
		default:
			if pool == nil {
				pool = par.New(opts.Parallelism)
			}
			return LocalScorer{Model: mdl, Pool: pool}
		}
	}
	s.newReplica = newReplica
	s.shards = opts.Shards
	s.groups = make([]*shardGroup, opts.Shards)
	for k := range s.groups {
		s.groups[k] = newShardGroup(k, opts.Replicas, newReplica)
	}
	s.pool = pool
	go s.batchLoop()
	return s, nil
}

// Model returns the model kernels in use.
func (s *Server) Model() model.Model { return s.mdl }

// Version returns the currently served model version (0 before the first
// install).
func (s *Server) Version() int64 {
	if snap := s.cur.Load(); snap != nil {
		return snap.version
	}
	return 0
}

// Features returns the served model dimension (0 before the first
// install).
func (s *Server) Features() int {
	if snap := s.cur.Load(); snap != nil {
		return snap.features
	}
	return 0
}

// QueueDepth returns the current admission-queue occupancy.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Shards returns the current column-shard count (Options.Shards until
// the first Reshard).
func (s *Server) Shards() int {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	return s.shards
}

// Metrics returns the live metrics registry.
func (s *Server) Metrics() *Metrics { return s.met }

func newScheme(name string, m, k int) (partition.Scheme, error) {
	switch name {
	case "range":
		return partition.NewRange(m, k)
	case "roundrobin":
		return partition.NewRoundRobin(m, k)
	case "hash":
		return partition.NewHash(m, k)
	default:
		return nil, fmt.Errorf("serve: unknown scheme %q", name)
	}
}

// Install atomically publishes a new model version built from full
// parameter rows (Result.Weights / LoadModel / Engine.ExportModel order).
// In-flight batches finish on the version they pinned — nothing is
// dropped. On error the previous version keeps serving.
func (s *Server) Install(rows [][]float64) (int64, error) {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	snap, err := s.buildSnapshot(rows)
	if err != nil {
		s.met.ReloadFailures.Add(1)
		return 0, err
	}
	// Retain a private copy of the rows: Reshard rebuilds its snapshot
	// from them, and the caller may mutate its slice after Install.
	s.rows = make([][]float64, len(rows))
	for i := range rows {
		s.rows[i] = append([]float64(nil), rows[i]...)
	}
	s.cur.Store(snap)
	s.met.Reloads.Add(1)
	return snap.version, nil
}

// Reshard atomically repartitions serving over n column shards: a new
// scheme, shard blocks, and scorer groups are built from the retained
// model rows and published as a fresh version. Batches pinned to the
// old snapshot finish on the old groups — no request is dropped — and
// on any error the old partitioning keeps serving. Same n is a no-op.
func (s *Server) Reshard(n int) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("serve: reshard needs a positive shard count, got %d", n)
	}
	s.installMu.Lock()
	defer s.installMu.Unlock()
	if s.rows == nil {
		return 0, ErrNoModel
	}
	if n == s.shards {
		if snap := s.cur.Load(); snap != nil {
			return snap.version, nil
		}
		return 0, ErrNoModel
	}
	groups := make([]*shardGroup, n)
	for k := range groups {
		groups[k] = newShardGroup(k, s.opts.Replicas, s.newReplica)
	}
	oldShards, oldGroups := s.shards, s.groups
	s.shards, s.groups = n, groups
	snap, err := s.buildSnapshot(s.rows)
	if err != nil {
		s.shards, s.groups = oldShards, oldGroups
		s.met.ReshardFailures.Add(1)
		return 0, err
	}
	s.cur.Store(snap)
	s.met.Reshards.Add(1)
	return snap.version, nil
}

// InstallFile hot-reloads from a checkpoint file written by persist.Save
// (Result.SaveModel). On any error — missing file, corrupt or truncated
// checkpoint, shape mismatch — the last good model keeps serving and the
// failure is counted.
func (s *Server) InstallFile(path string) (int64, error) {
	rows, err := persist.Load(path)
	if err != nil {
		s.met.ReloadFailures.Add(1)
		return 0, err
	}
	return s.Install(rows)
}

func (s *Server) buildSnapshot(rows [][]float64) (*snapshot, error) {
	if len(rows) != s.mdl.ParamRows() {
		return nil, fmt.Errorf("serve: model %q needs %d parameter rows, got %d",
			s.mdl.Name(), s.mdl.ParamRows(), len(rows))
	}
	features := len(rows[0])
	if features == 0 {
		return nil, fmt.Errorf("serve: zero-width model")
	}
	for i := range rows {
		if len(rows[i]) != features {
			return nil, fmt.Errorf("serve: ragged parameter rows (%d vs %d values)", len(rows[i]), features)
		}
	}
	scheme, err := newScheme(s.opts.Scheme, features, s.shards)
	if err != nil {
		return nil, err
	}
	shards := make([]*model.Params, s.shards)
	for p := range shards {
		width := scheme.PartSize(p)
		blk := model.NewParams(len(rows), width)
		for row := range rows {
			for local := 0; local < width; local++ {
				blk.W[row][local] = rows[row][scheme.Global(p, int32(local))]
			}
		}
		shards[p] = blk
	}
	snap := &snapshot{
		version:  s.nextVersion.Add(1),
		features: features,
		scheme:   scheme,
		shards:   shards,
		groups:   s.groups,
	}
	if s.opts.Precision == "f32" {
		snap.shards32 = make([]*model.Params32, len(shards))
		for p := range shards {
			snap.shards32[p] = model.NarrowParams(shards[p])
		}
	}
	return snap, nil
}

// Predict scores one example through the micro-batching path, blocking
// until it is scored, the context is cancelled, or admission fails.
func (s *Server) Predict(ctx context.Context, row vec.Sparse) (Prediction, error) {
	if s.cur.Load() == nil {
		return Prediction{}, ErrNoModel
	}
	if err := s.admit(); err != nil {
		return Prediction{}, err
	}
	req := &request{row: row, enq: s.opts.Clock.Now(), done: make(chan outcome, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.release()
		return Prediction{}, ErrClosed
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.release()
		s.met.Rejected.Add(1)
		return Prediction{}, ErrQueueFull
	}
	select {
	case out := <-req.done:
		return out.pred, out.err
	case <-ctx.Done():
		return Prediction{}, ctx.Err()
	}
}

// admit charges the in-flight budget. The budget frees when the request's
// outcome is delivered (deliver), not when Predict returns — a caller
// abandoning a queued request via its context does not free capacity the
// server is still spending.
func (s *Server) admit() error {
	if s.opts.MaxInFlight <= 0 {
		return nil
	}
	n := s.inflightReqs.Add(1)
	if n > int64(s.opts.MaxInFlight) {
		s.inflightReqs.Add(-1)
		s.met.Overloaded.Add(1)
		return ErrOverloaded
	}
	for {
		peak := s.peakInFlight.Load()
		if n <= peak || s.peakInFlight.CompareAndSwap(peak, n) {
			return nil
		}
	}
}

func (s *Server) release() {
	if s.opts.MaxInFlight > 0 {
		s.inflightReqs.Add(-1)
	}
}

// deliver hands a request its outcome and frees its admission slot.
func (s *Server) deliver(req *request, out outcome) {
	req.done <- out
	s.release()
}

// InFlight returns the current and peak admitted-but-unanswered request
// counts (both 0 unless MaxInFlight is set).
func (s *Server) InFlight() (cur, peak int64) {
	return s.inflightReqs.Load(), s.peakInFlight.Load()
}

// batchLoop is the micro-batcher: it holds the first request of a batch
// for at most MaxWait while up to MaxBatch requests accumulate, then
// dispatches the batch. Concurrent requests share one fan-out round-trip.
func (s *Server) batchLoop() {
	defer close(s.loopDone)
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		batch := make([]*request, 1, s.opts.MaxBatch)
		batch[0] = first
		timer := s.opts.Clock.NewTimer(s.opts.MaxWait)
	fill:
		for len(batch) < s.opts.MaxBatch {
			select {
			case r, ok := <-s.queue:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			case <-timer.C():
				break fill
			}
		}
		timer.Stop()
		s.slots <- struct{}{}
		s.inflight.Add(1)
		go func(b []*request) {
			defer func() {
				<-s.slots
				s.inflight.Done()
			}()
			s.scoreBatch(b)
		}(batch)
	}
}

// scoreBatch runs one micro-batch: pin the snapshot, column-split the
// rows, fan out to shard scorers, aggregate, predict.
func (s *Server) scoreBatch(batch []*request) {
	snap := s.cur.Load()
	if snap == nil {
		s.fail(batch, ErrNoModel)
		return
	}
	s.met.BatchSize.Observe(float64(len(batch)))
	start := s.opts.Clock.Now()
	for _, req := range batch {
		s.met.Phases.Observe(PhaseQueue, start.Sub(req.enq).Seconds())
	}

	// Column-split once per batch: shard k sees every row re-indexed to
	// its local coordinate space (the serving analogue of Algorithm 4).
	// Feature indices past the model dimension contribute zero, matching
	// local scoring with the assembled model. Under f32 precision the
	// split writes float32 values directly — the single narrowing on the
	// scoring path.
	f32 := snap.shards32 != nil
	var shardRows [][]vec.Sparse
	var shardRows32 [][]vec.Sparse32
	if f32 {
		shardRows32 = make([][]vec.Sparse32, len(snap.shards))
		for k := range shardRows32 {
			shardRows32[k] = make([]vec.Sparse32, len(batch))
		}
	} else {
		shardRows = make([][]vec.Sparse, len(snap.shards))
		for k := range shardRows {
			shardRows[k] = make([]vec.Sparse, len(batch))
		}
	}
	for i, req := range batch {
		for k, j := range req.row.Indices {
			if int(j) >= snap.features {
				continue
			}
			o := snap.scheme.Owner(j)
			if f32 {
				shardRows32[o][i].Indices = append(shardRows32[o][i].Indices, snap.scheme.Local(j))
				shardRows32[o][i].Values = append(shardRows32[o][i].Values, float32(req.row.Values[k]))
			} else {
				shardRows[o][i].Indices = append(shardRows[o][i].Indices, snap.scheme.Local(j))
				shardRows[o][i].Values = append(shardRows[o][i].Values, req.row.Values[k])
			}
		}
	}

	spp := s.mdl.StatsPerPoint()
	want := len(batch) * spp
	labels := make([]float64, len(batch)) // kernels ignore labels for stats
	stats := make([][]float64, len(snap.shards))
	errs := make([]error, len(snap.shards))
	var wg sync.WaitGroup
	for k := range snap.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := ShardRequest{Shard: k, Version: snap.version}
			if f32 {
				req.Params32 = snap.shards32[k]
				req.Batch32 = model.Batch32{Rows: shardRows32[k], Labels: labels}
			} else {
				req.Params = snap.shards[k]
				req.Batch = model.Batch{Rows: shardRows[k], Labels: labels}
			}
			stats[k], errs[k] = s.callShard(snap.groups[k], req)
		}(k)
	}
	wg.Wait()

	// Sum partial statistics in shard order — deterministic aggregation,
	// like the training engine's reduce.
	agg := make([]float64, want)
	for k := range snap.shards {
		if errs[k] != nil {
			s.met.ShardFailures.Add(1)
			s.fail(batch, fmt.Errorf("serve: shard %d: %w", k, errs[k]))
			return
		}
		if len(stats[k]) != want {
			s.fail(batch, fmt.Errorf("serve: shard %d returned %d stats, want %d", k, len(stats[k]), want))
			return
		}
		for i, v := range stats[k] {
			agg[i] += v
		}
	}

	now := s.opts.Clock.Now()
	s.met.Phases.Observe(PhaseScore, now.Sub(start).Seconds())
	for i, req := range batch {
		st := agg[i*spp : (i+1)*spp]
		s.met.Requests.Add(1)
		s.met.Latency.Observe(now.Sub(req.enq).Seconds())
		s.deliver(req, outcome{pred: Prediction{
			Label:   s.mdl.Predict(st),
			Margin:  st[0],
			Version: snap.version,
		}})
	}
}

func (s *Server) fail(batch []*request, err error) {
	for _, req := range batch {
		s.met.Errors.Add(1)
		s.deliver(req, outcome{err: err})
	}
}

// callShard invokes one shard group with a per-call timeout and retries:
// a transient replica failure costs one extra round-trip, not the whole
// batch. The attempt/deadline loop is the training driver's
// driver.Policy, so serving and training share one timeout/retry
// implementation (a timed-out attempt's goroutine is abandoned — the
// buffered result channel inside Policy keeps it from racing a retry).
// With replicas, each retry avoids the replica it last tried, so a dead
// replica fails over instead of being hammered; with hedging, each
// attempt may fan out to a second replica (see callReplicas).
//
// The final error distinguishes slow from broken: deadline expiry on the
// last attempt wraps ErrShardDeadline (errors.Is still sees
// context.DeadlineExceeded through it); anything else wraps
// ErrReplicasExhausted. The two land on separate /metricz counters.
func (s *Server) callShard(g *shardGroup, req ShardRequest) ([]float64, error) {
	reqBytes := s.shardRequestBytes(req)
	attempts := 2
	if len(g.replicas) > attempts {
		attempts = len(g.replicas)
	}
	var last atomic.Int64
	last.Store(-1)
	p := driver.Policy{
		Attempts:  attempts,
		Timeout:   s.opts.ShardTimeout,
		OnRetry:   func(error) { s.met.ShardRetries.Add(1) },
		OnTimeout: func() { s.met.ShardTimeouts.Add(1) },
	}
	v, err := p.Do(func(ctx context.Context) (interface{}, error) {
		return s.callReplicas(ctx, g, &last, req, reqBytes)
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.ShardDeadlines.Add(1)
			return nil, fmt.Errorf("%w: %w", ErrShardDeadline, err)
		}
		s.met.ReplicaExhaustion.Add(1)
		return nil, fmt.Errorf("%w: %w", ErrReplicasExhausted, err)
	}
	stats := v.([]float64)
	s.met.Fanout.Add(reqBytes + s.shardReplyBytes(stats))
	return stats, nil
}

// callReplicas runs one Policy attempt against a shard group: launch on
// a balancer-picked replica (avoiding the previous attempt's pick, so
// retries fail over), arm the hedge timer on the injected Clock, and if
// it fires before the primary answers, launch the same call on a second
// replica. First success wins and cancels the loser; an attempt fails
// only when every launched call has failed (or the attempt deadline
// expires). last records the most recent pick atomically because a
// timed-out attempt's goroutine may outlive its attempt and race the
// retry.
func (s *Server) callReplicas(ctx context.Context, g *shardGroup, last *atomic.Int64, req ShardRequest, reqBytes int64) ([]float64, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		stats []float64
		err   error
		rep   int
	}
	results := make(chan result, 2)
	launch := func(r *replica) {
		r.inflight.Add(1)
		go func() {
			stats, err := r.scorer.PartialStats(cctx, req)
			r.inflight.Add(-1)
			results <- result{stats, err, r.idx}
		}()
	}
	primary := g.pick(int(last.Load()))
	last.Store(int64(primary.idx))
	launch(primary)
	outstanding := 1

	var hedgeC <-chan time.Time
	if s.opts.HedgeAfter > 0 && len(g.replicas) > 1 {
		t := s.opts.Clock.NewTimer(s.opts.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C()
	}
	var firstErr error
	hedged := false
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				cancel() // loser, if any, stops scoring
				if hedged && r.rep != primary.idx {
					s.met.HedgeWins.Add(1)
				}
				return r.stats, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			h := g.pick(primary.idx)
			last.Store(int64(h.idx))
			s.met.Hedges.Add(1)
			s.met.Fanout.Add(reqBytes) // the duplicated request costs real bytes
			launch(h)
			outstanding++
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// shardRequestBytes models one shard call's request payload under the
// configured codec: the exact encoded size of each row's sparse pair
// (delta-varint indices + values at the codec's width) plus a fixed
// header. The byte model reads only the row index structure, which both
// precisions share.
func (s *Server) shardRequestBytes(req ShardRequest) int64 {
	n := int64(16)
	rowIdx := func(i int) []int32 {
		if req.Params32 != nil {
			return req.Batch32.Rows[i].Indices
		}
		return req.Batch.Rows[i].Indices
	}
	rows := len(req.Batch.Rows)
	if req.Params32 != nil {
		rows = len(req.Batch32.Rows)
	}
	for i := 0; i < rows; i++ {
		n += int64(wire.SparseSize(rowIdx(i), s.codec.Enc))
	}
	return n
}

// shardReplyBytes models one shard reply's statistics payload: the exact
// encoded vector size under the configured codec.
func (s *Server) shardReplyBytes(stats []float64) int64 {
	return int64(wire.VecSize(stats, s.codec.Enc))
}

// Close drains the server: no new requests are admitted, everything
// already queued is scored, and in-flight batches complete before Close
// returns.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	<-s.loopDone
	s.inflight.Wait()
	s.pool.Shutdown()
	return nil
}
