package core

import (
	"fmt"
	"math"
	"testing"

	"columnsgd/internal/model"
	"columnsgd/internal/opt"
	"columnsgd/internal/partition"
	"columnsgd/internal/vec"
)

// stepWorker builds a loaded single-partition worker over width columns:
// 4 blocks of 64 rows, 3 non-zeros a row. A 48-row batch holds 144
// non-zeros, so width 4096 lands on the sparse side of
// model.SparseGradient and width 64 on the dense side.
func stepWorker(t *testing.T, mdl string, arg, width int, o opt.Config) *Worker {
	t.Helper()
	w := NewWorker()
	if err := w.init(&InitArgs{
		Partitions: []int{0}, Widths: []int{width},
		ModelName: mdl, ModelArg: arg, Opt: o, Seed: 3, Parallelism: 2,
	}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		csr := vec.NewCSR(int32(width), 64)
		labels := make([]float64, 64)
		for i := 0; i < 64; i++ {
			base := (b*64 + i*7) % (width - 26)
			row := vec.Sparse{
				Indices: []int32{int32(base), int32(base + 13), int32(base + 26)},
				Values:  []float64{1, 0.5 + float64(i%3)/4, -0.75},
			}
			if err := csr.AppendRow(row); err != nil {
				t.Fatal(err)
			}
			labels[i] = float64(1 - 2*((b+i)%2))
		}
		if err := w.load(&LoadArgs{Partition: 0, Workset: &partition.Workset{BlockID: b, Labels: labels, Data: csr}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.loadDone(); err != nil {
		t.Fatal(err)
	}
	return w
}

var stepOpts = []opt.Config{
	{Algo: "sgd", LR: 0.1},
	{Algo: "sgd", LR: 0.1, L2: 0.01},
	{Algo: "adagrad", LR: 0.1},
	{Algo: "adagrad", LR: 0.1, L2: 0.01},
	{Algo: "momentum", LR: 0.1, Momentum: 0.9},
	{Algo: "momentum", LR: 0.1, Momentum: 0.9, L2: 0.01},
	{Algo: "adam", LR: 0.05},
	{Algo: "adam", LR: 0.05, L2: 0.01},
}

func stepName(mdl string, width int, o opt.Config) string {
	return fmt.Sprintf("%s/w%d/%s/l2=%g", mdl, width, o.Algo, o.L2)
}

// TestStepLeavesGradientClean: ps.grad is all-zero between rounds —
// the invariant the support-only step relies on — for every optimizer,
// with and without L2, on both sides of the density gate, with plain
// rounds alternating with local-steps rounds (the two writers of
// ps.grad).
func TestStepLeavesGradientClean(t *testing.T) {
	for _, mdl := range []struct {
		name string
		arg  int
	}{{"lr", 0}, {"fm", 2}} {
		for _, width := range []int{64, 4096} {
			for _, o := range stepOpts {
				name := stepName(mdl.name, width, o)
				w := stepWorker(t, mdl.name, mdl.arg, width, o)
				for it := int64(0); it < 6; it++ {
					sr, err := w.computeStats(&StatsArgs{Iter: it, BatchSize: 48})
					if err != nil {
						t.Fatal(err)
					}
					if it%2 == 0 {
						_, err = w.update(&UpdateArgs{Iter: it, BatchSize: 48, Stats: sr.Stats})
					} else {
						_, err = w.solverUpdate(&SolverUpdateArgs{Iter: it, BatchSize: 48, LocalSteps: 3, Stats: sr.Stats})
					}
					if err != nil {
						t.Fatal(err)
					}
					if g := w.parts[0].grad; g.NNZ() != 0 {
						t.Fatalf("%s round %d: ps.grad holds %d non-zeros between rounds", name, it, g.NNZ())
					}
				}
			}
		}
	}
}

// TestStepMatchesDenseUpdate: a worker's plain rounds give the same bits
// as the dense reference — ParallelGradient into a fresh block, then
// the optimizer's full-width Apply — on both sides of the density gate.
func TestStepMatchesDenseUpdate(t *testing.T) {
	for _, width := range []int{64, 4096} {
		for _, o := range stepOpts {
			name := stepName("lr", width, o)
			w := stepWorker(t, "lr", 0, width, o)
			ps := w.parts[0]
			ref := ps.params.Clone()
			refOpt, err := opt.New(o)
			if err != nil {
				t.Fatal(err)
			}
			for it := int64(0); it < 5; it++ {
				sr, err := w.computeStats(&StatsArgs{Iter: it, BatchSize: 48})
				if err != nil {
					t.Fatal(err)
				}
				batch, err := batchFor(ps, w.refsFor(&StatsArgs{Iter: it, BatchSize: 48}))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := model.SparseGradient(w.mdl, batch, width), width > 64; got != want {
					t.Fatalf("%s: SparseGradient = %v, want %v", name, got, want)
				}
				g := model.NewParams(1, width)
				model.ParallelGradient(w.pool, w.mdl, ref, batch, sr.Stats, g)
				if err := refOpt.Apply(ref, g); err != nil {
					t.Fatal(err)
				}
				if _, err := w.update(&UpdateArgs{Iter: it, BatchSize: 48, Stats: sr.Stats}); err != nil {
					t.Fatal(err)
				}
				for j, v := range ps.params.W[0] {
					if math.Float64bits(v) != math.Float64bits(ref.W[0][j]) {
						t.Fatalf("%s round %d: w[%d] = %v, dense reference %v", name, it, j, v, ref.W[0][j])
					}
				}
			}
		}
	}
}
