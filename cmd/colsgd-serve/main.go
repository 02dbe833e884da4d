// Command colsgd-serve serves online predictions from a trained ColumnSGD
// checkpoint over HTTP — the ColumnServe frontend. Predictions are
// micro-batched and fanned out across column shards exactly like training
// iterations, so serving exchanges O(batch) statistics, not O(model)
// state.
//
// Usage:
//
//	colsgd-train -data train.libsvm -save model.bin ...
//	colsgd-serve -model model.bin -kind lr -shards 4 -listen :8080
//
// Endpoints:
//
//	POST /predict  {"instances":[{"indices":[1,5],"values":[1,0.5]}]}
//	POST /reload   {"path":"new-model.bin"}   (hot reload; zero dropped requests)
//	GET  /metricz  latency percentiles, batch sizes, queue depth, fan-out traffic
//	GET  /healthz  liveness + served model version
//
// SIGINT/SIGTERM drain the HTTP server and the batching queue before
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	columnsgd "columnsgd"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil {
		fmt.Fprintln(os.Stderr, "colsgd-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("colsgd-serve", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", ":8080", "HTTP listen address")
		modelPath    = fs.String("model", "", "model checkpoint from SaveModel (required)")
		kind         = fs.String("kind", "lr", "model kind the checkpoint was trained with: lr, svm, linreg, mlr, fm")
		classes      = fs.Int("classes", 2, "class count for mlr")
		factors      = fs.Int("factors", 10, "latent factors for fm")
		shards       = fs.Int("shards", 4, "column shards to fan predictions out over")
		replicas     = fs.Int("replicas", 1, "scorer replicas per column shard (stateless; balanced by in-flight load)")
		hedgeAfter   = fs.Duration("hedge-after", 0, "fire a hedged call on a second replica after this delay (0 disables; needs -replicas > 1)")
		maxInFlight  = fs.Int("max-inflight", 0, "in-flight request budget; beyond it predicts fast-reject with 429 (0 disables)")
		maxBatch     = fs.Int("max-batch", 64, "micro-batch size cap")
		maxWait      = fs.Duration("max-wait", 2*time.Millisecond, "micro-batch fill window")
		queueCap     = fs.Int("queue", 4096, "admission queue capacity")
		shardTimeout = fs.Duration("shard-timeout", 250*time.Millisecond, "per-shard call timeout (one retry)")
		drain        = fs.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
		par          = fs.Int("parallelism", 0, "scoring goroutines shared by the shard scorers (0 = GOMAXPROCS; bit-identical at any value)")
		codec        = fs.String("codec", "", "statistics codec modeled by fan-out byte accounting: wire, wire-f32, wire-f16")
		precision    = fs.String("precision", "", "scoring width: f64 (default) or f32 (float32 shard kernels; margins stay within f32 rounding of f64)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		fs.Usage()
		return fmt.Errorf("-model is required")
	}

	srv, err := columnsgd.NewServer(columnsgd.ServeConfig{
		Model:        columnsgd.ModelKind(*kind),
		Classes:      *classes,
		Factors:      *factors,
		Shards:       *shards,
		Replicas:     *replicas,
		HedgeAfter:   *hedgeAfter,
		MaxInFlight:  *maxInFlight,
		MaxBatch:     *maxBatch,
		Parallelism:  *par,
		MaxWait:      *maxWait,
		QueueCap:     *queueCap,
		ShardTimeout: *shardTimeout,
		Codec:        *codec,
		Precision:    *precision,
	})
	if err != nil {
		return err
	}
	version, err := srv.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "colsgd-serve: model %s version %d, %d shards x %d replicas, listening on %s\n",
		*modelPath, version, *shards, *replicas, lis.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(lis) }()
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "colsgd-serve: %v — draining (up to %v)\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return err
		}
		return srv.Close()
	}
}
