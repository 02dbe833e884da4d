// Command colsgd-train trains a model on LibSVM data with ColumnSGD.
//
// Usage:
//
//	colsgd-train -data train.libsvm -model lr -workers 4 -batch 1000 -lr 0.1 -iters 200
//
// Workers run in-process by default; pass -addrs host1:port,host2:port to
// drive remote colsgd-node workers over TCP.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	columnsgd "columnsgd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "colsgd-train:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("colsgd-train", flag.ContinueOnError)
	var (
		dataPath   = fs.String("data", "", "LibSVM training data path (required)")
		features   = fs.Int("features", 0, "feature dimension (0 = infer from data)")
		modelName  = fs.String("model", "lr", "model: lr, svm, linreg, mlr, fm, or a registered custom model")
		classes    = fs.Int("classes", 2, "class count for mlr")
		factors    = fs.Int("factors", 10, "latent factors for fm")
		workers    = fs.Int("workers", 4, "number of workers / column partitions")
		backup     = fs.Int("backup", 0, "S-backup replication (workers divisible by S+1)")
		optimizer  = fs.String("opt", "sgd", "optimizer: sgd, momentum, adagrad, adam")
		lr         = fs.Float64("lr", 0.1, "learning rate")
		gridFlag   = fs.String("lr-grid", "", "comma-separated learning rates to grid-search (overrides -lr)")
		l2         = fs.Float64("l2", 0, "L2 regularization")
		l1         = fs.Float64("l1", 0, "L1 regularization")
		batch      = fs.Int("batch", 1000, "mini-batch size B")
		iters      = fs.Int("iters", 100, "SGD iterations")
		blockSize  = fs.Int("block", 1024, "loading block size")
		epoch      = fs.Bool("epoch", false, "sequential epoch access instead of mini-batch sampling")
		seed       = fs.Int64("seed", 1, "random seed")
		par        = fs.Int("parallelism", 0, "per-worker compute goroutines (0 = GOMAXPROCS; any value is bit-identical)")
		pipeline   = fs.Bool("pipeline", true, "overlap next iteration's batch-plan broadcast with the current update (bit-identical)")
		staleness  = fs.Int("staleness", 0, "bounded-staleness bound s: workers run up to s iterations ahead (0 = synchronous BSP; s > 0 disables -pipeline)")
		staleSeed  = fs.Int64("staleness-seed", 0, "staleness lag-schedule seed (0 = max slack; same seed replays the same schedule)")
		solver     = fs.String("solver", "", "master-side update rule: sgd (default classic round), local (K local steps per exchange), lbfgs (full-batch L-BFGS with line search; disables -pipeline)")
		localSteps = fs.Int("local-steps", 0, "local optimizer steps K per exchange for -solver local (0 = default 4)")
		lbfgsMem   = fs.Int("lbfgs-memory", 0, "curvature-pair history m for -solver lbfgs (0 = default 8)")
		evalEvery  = fs.Int("eval-every", 10, "full-loss evaluation interval (0 = batch loss)")
		addrs      = fs.String("addrs", "", "comma-separated TCP worker addresses (empty = in-process)")
		codec      = fs.String("codec", "", "statistics codec: wire, wire-f32, wire-f16 (default: compact lossless)")
		precision  = fs.String("precision", "", "worker compute precision: f64 (default) or f32 (float32 kernels; aggregation and losses stay float64)")
		modelOut   = fs.String("model-out", "", "write final weights (one value per line) to this file")
		savePath   = fs.String("save", "", "write a binary model checkpoint (loadable by colsgd-serve and LoadModel)")
		membership = fs.String("membership", "", "elastic membership schedule, e.g. \"leave@3:1,join@6:4,crash@9:0\": nodes depart/join/crash at round barriers and column partitions migrate live (in-process workers only)")
		saveAssign = fs.String("save-assign", "", "write the final slot->node shard assignment checkpoint (requires -membership)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		fs.Usage()
		return fmt.Errorf("-data is required")
	}

	ds, err := columnsgd.LoadLibSVMFile(*dataPath, *features)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loaded %s: %s\n", *dataPath, ds.Stats())

	cfg := columnsgd.Config{
		Model:         columnsgd.ModelKind(*modelName),
		Classes:       *classes,
		Factors:       *factors,
		Workers:       *workers,
		Backup:        *backup,
		Optimizer:     columnsgd.Optimizer(*optimizer),
		LearningRate:  *lr,
		L2:            *l2,
		L1:            *l1,
		BatchSize:     *batch,
		Iterations:    *iters,
		BlockSize:     *blockSize,
		EpochAccess:   *epoch,
		Seed:          *seed,
		EvalEvery:     *evalEvery,
		Parallelism:   *par,
		Pipeline:      *pipeline,
		Staleness:     *staleness,
		StalenessSeed: *staleSeed,
		Codec:         *codec,
		Precision:     *precision,
		Membership:    *membership,
		Solver:        *solver,
		LocalSteps:    *localSteps,
		LBFGSMemory:   *lbfgsMem,
	}
	if *staleness > 0 {
		// Pipelining is a BSP round mechanism; SSP already overlaps
		// iterations through the staleness window.
		cfg.Pipeline = false
	}
	if *solver == "lbfgs" {
		// L-BFGS rounds are sequenced (gradient → direction → line
		// search); there is no next batch plan to overlap.
		cfg.Pipeline = false
	}
	if *addrs != "" {
		cfg.WorkerAddrs = strings.Split(*addrs, ",")
		cfg.Workers = len(cfg.WorkerAddrs)
	}

	if *gridFlag != "" {
		var grid []float64
		for _, s := range strings.Split(*gridFlag, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil {
				return fmt.Errorf("bad -lr-grid entry %q: %w", s, err)
			}
			grid = append(grid, v)
		}
		winner, results, err := columnsgd.GridSearch(ds, cfg, grid)
		if err != nil {
			return err
		}
		for _, r := range results {
			status := fmt.Sprintf("final loss %.6f", r.FinalLoss)
			if r.Err != nil {
				status = "failed: " + r.Err.Error()
			}
			fmt.Fprintf(stdout, "grid lr=%-8g %s\n", r.LearningRate, status)
		}
		fmt.Fprintf(stdout, "grid winner: lr=%g\n", winner.LearningRate)
		cfg = winner
	}

	if *saveAssign != "" && *membership == "" {
		return fmt.Errorf("-save-assign requires -membership")
	}
	if *membership != "" {
		// The schedule + seed fully determine the run; this line is the
		// replay handle the rebalance harness promises.
		fmt.Fprintf(stdout, "elastic membership %q seed %d (replay: -membership %q -seed %d)\n",
			*membership, cfg.Seed, *membership, cfg.Seed)
	}

	trainer, err := columnsgd.NewTrainer(ds, cfg)
	if err != nil {
		return err
	}
	runIters := cfg.Iterations
	if runIters == 0 {
		runIters = 100
	}
	if err := trainer.Run(runIters); err != nil {
		return err
	}
	res, err := trainer.Result()
	if err != nil {
		return err
	}
	for _, p := range res.LossCurve {
		fmt.Fprintf(stdout, "iter %4d  loss %.6f  elapsed(modeled) %.3fs\n", p.Iteration, p.Loss, p.Elapsed.Seconds())
	}
	fmt.Fprintf(stdout, "final loss: %.6f\n", res.FinalLoss)
	fmt.Fprintf(stdout, "training accuracy: %.4f\n", res.Accuracy(ds))
	fmt.Fprintf(stdout, "statistics traffic: %d bytes; modeled load %v, train %v\n",
		res.CommBytes, res.LoadTime, res.TrainTime)
	if *membership != "" {
		fmt.Fprintf(stdout, "rebalances: %d (migration traffic %d bytes)\n",
			res.Rebalances, res.MigrationBytes)
	}

	if *modelOut != "" {
		f, err := os.Create(*modelOut)
		if err != nil {
			return err
		}
		for _, row := range res.Weights() {
			for _, v := range row {
				fmt.Fprintf(f, "%g\n", v)
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "weights written to %s\n", *modelOut)
	}
	if *savePath != "" {
		if err := res.SaveModel(*savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model checkpoint written to %s\n", *savePath)
	}
	if *saveAssign != "" {
		if err := trainer.SaveAssignment(*saveAssign); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "shard assignment written to %s\n", *saveAssign)
	}
	return nil
}
