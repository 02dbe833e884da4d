package columnsgd

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"columnsgd/internal/serve"
)

// ServeConfig configures a prediction Server (ColumnServe).
type ServeConfig struct {
	// Model picks the model kind the checkpoints were trained with
	// (default LogisticRegression).
	Model ModelKind
	// Classes is the class count for Multinomial.
	Classes int
	// Factors is the latent factor count for FactorizationMachine.
	Factors int

	// Shards is the number of column shards predictions fan out over
	// (default 4).
	Shards int
	// Replicas is the number of stateless scorer replicas per column
	// shard (default 1). A shard group balances calls over its replicas
	// (power-of-two-choices on in-flight count); any replica returns
	// identical results, so a dead replica fails over without changing a
	// prediction.
	Replicas int
	// HedgeAfter, when positive and Replicas > 1, fires each shard call
	// on a second replica if the first has not answered within the delay;
	// the first response wins and the loser is cancelled. Zero disables
	// hedging.
	HedgeAfter time.Duration
	// MaxInFlight bounds requests admitted but not yet answered; beyond
	// it Predict fast-rejects with ErrOverloaded instead of queueing into
	// collapse. Zero disables the budget.
	MaxInFlight int
	// MaxBatch caps a micro-batch (default 64).
	MaxBatch int
	// Parallelism sizes the deterministic compute pool the shard scorers
	// share (0 = GOMAXPROCS); predictions are bit-identical at any value.
	Parallelism int
	// MaxWait bounds how long the first request of a micro-batch waits
	// for company (default 2ms).
	MaxWait time.Duration
	// QueueCap bounds the admission queue (default 4096); requests beyond
	// it are rejected rather than queued unboundedly.
	QueueCap int
	// ShardTimeout bounds one shard scoring call; a failed or timed-out
	// call is retried once (default 250ms).
	ShardTimeout time.Duration
	// MaxConcurrent bounds micro-batches scored at once (default 16);
	// beyond it the queue fills and admission rejects.
	MaxConcurrent int
	// Codec selects the statistics codec the fan-out byte accounting
	// models ("wire", "wire-f32", "wire-f16"); empty means the
	// default compact lossless codec.
	Codec string
	// Precision selects the scoring width: "" or "f64" scores shards in
	// float64; "f32" narrows shard blocks once at load and scores with
	// the float32 kernels. Margins stay within f32 rounding of f64 and
	// are deterministic — bit-identical across replays and any
	// Parallelism for a fixed shard count; like the f64 path, changing
	// Shards reassociates the per-shard partial sums at ulp scale.
	Precision string
}

// ErrOverloaded is the typed fast-reject Predict returns when
// ServeConfig.MaxInFlight is saturated; callers should shed or back off
// rather than retry immediately.
var ErrOverloaded = serve.ErrOverloaded

// Prediction is one served prediction.
type Prediction struct {
	// Label is the predicted label: ±1 for binary models, the class index
	// for Multinomial, the regression value for LeastSquares.
	Label float64
	// Margin is the raw model score (the first aggregated statistic).
	Margin float64
	// ModelVersion identifies the hot-reloadable model version that
	// served the request.
	ModelVersion int64
}

// ServeMetrics is a point-in-time view of a Server's observability
// counters — the same payload /metricz reports.
type ServeMetrics = serve.Snapshot

// Server is ColumnServe: an online prediction service that reuses
// ColumnSGD's column partitioning at query time. Incoming examples are
// micro-batched, column-split across shards, scored as partial statistics
// with the training kernels, and aggregated — so a sharded prediction
// agrees with scoring the assembled model locally. Models hot-reload
// atomically without disturbing in-flight requests.
type Server struct {
	inner *serve.Server
}

// NewServer builds a prediction server. No model is loaded yet: call
// LoadResult, LoadWeights, or LoadModelFile before predicting.
func NewServer(cfg ServeConfig) (*Server, error) {
	kind := cfg.Model
	if kind == "" {
		kind = LogisticRegression
	}
	arg := Config{Model: kind, Classes: cfg.Classes, Factors: cfg.Factors}.modelArg()
	inner, err := serve.New(serve.Options{
		ModelName:     string(kind),
		ModelArg:      arg,
		Shards:        cfg.Shards,
		Replicas:      cfg.Replicas,
		HedgeAfter:    cfg.HedgeAfter,
		MaxInFlight:   cfg.MaxInFlight,
		MaxBatch:      cfg.MaxBatch,
		MaxWait:       cfg.MaxWait,
		QueueCap:      cfg.QueueCap,
		ShardTimeout:  cfg.ShardTimeout,
		MaxConcurrent: cfg.MaxConcurrent,
		Parallelism:   cfg.Parallelism,
		Codec:         cfg.Codec,
		Precision:     cfg.Precision,
	})
	if err != nil {
		return nil, fmt.Errorf("columnsgd: %w", err)
	}
	return &Server{inner: inner}, nil
}

// LoadWeights atomically installs a model from full parameter rows (the
// shape Result.Weights and LoadModel return) and returns the new version.
func (s *Server) LoadWeights(w [][]float64) (int64, error) {
	v, err := s.inner.Install(w)
	if err != nil {
		return 0, fmt.Errorf("columnsgd: %w", err)
	}
	return v, nil
}

// LoadModelFile hot-reloads from a checkpoint written by Result.SaveModel.
// On any error the previously loaded model keeps serving.
func (s *Server) LoadModelFile(path string) (int64, error) {
	v, err := s.inner.InstallFile(path)
	if err != nil {
		return 0, fmt.Errorf("columnsgd: %w", err)
	}
	return v, nil
}

// LoadResult installs a freshly trained model straight from a live
// training Result — train, export, serve, no file needed.
func (s *Server) LoadResult(res *Result) (int64, error) {
	if res.mdl.Name() != s.inner.Model().Name() {
		return 0, fmt.Errorf("columnsgd: server is configured for model %q, result holds %q",
			s.inner.Model().Name(), res.mdl.Name())
	}
	return s.LoadWeights(res.params.W)
}

// Predict scores one example through the micro-batching path.
func (s *Server) Predict(ctx context.Context, features SparseVector) (Prediction, error) {
	row, err := features.toVec()
	if err != nil {
		return Prediction{}, fmt.Errorf("columnsgd: %w", err)
	}
	p, err := s.inner.Predict(ctx, row)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Label: p.Label, Margin: p.Margin, ModelVersion: p.Version}, nil
}

// Handler returns the HTTP/JSON frontend (POST /predict, POST /reload,
// GET /metricz, GET /healthz) for mounting on any net/http server.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Metrics snapshots the serving metrics: latency percentiles, batch-size
// distribution, queue depth, shard fan-out traffic, and reload counts.
func (s *Server) Metrics() ServeMetrics { return s.inner.Snapshot() }

// Version returns the currently served model version (0 before the first
// load).
func (s *Server) Version() int64 { return s.inner.Version() }

// Close drains the server: queued and in-flight requests complete, new
// ones are rejected.
func (s *Server) Close() error { return s.inner.Close() }
