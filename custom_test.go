package columnsgd_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	columnsgd "columnsgd"
)

// poissonModel implements Poisson regression through the public
// programming framework: statistics are dot products ⟨w,x⟩, the loss is
// the Poisson negative log-likelihood exp(s) − y·s, and the gradient
// coefficient is (exp(s) − y).
type poissonModel struct{}

func (poissonModel) StatsPerPoint() int { return 1 }
func (poissonModel) ParamRows() int     { return 1 }

func (poissonModel) Init(params [][]float64, _ *rand.Rand) {}

func (poissonModel) PartialStats(params [][]float64, rows []columnsgd.SparseVector, dst []float64) []float64 {
	w := params[0]
	for _, r := range rows {
		var s float64
		for k, idx := range r.Indices {
			if int(idx) < len(w) {
				s += r.Values[k] * w[idx]
			}
		}
		dst = append(dst, s)
	}
	return dst
}

func (poissonModel) PointLoss(label float64, stats []float64) float64 {
	s := stats[0]
	if s > 30 {
		s = 30 // clamp against exp overflow
	}
	return math.Exp(s) - label*s
}

func (poissonModel) Gradient(params [][]float64, rows []columnsgd.SparseVector, labels []float64, stats []float64, grad [][]float64) {
	g := grad[0]
	inv := 1 / float64(len(rows))
	for i, r := range rows {
		s := stats[i]
		if s > 30 {
			s = 30
		}
		c := (math.Exp(s) - labels[i]) * inv
		for k, idx := range r.Indices {
			if int(idx) < len(g) {
				g[idx] += c * r.Values[k]
			}
		}
	}
}

func (poissonModel) Predict(stats []float64) float64 {
	s := stats[0]
	if s > 30 {
		s = 30
	}
	return math.Exp(s)
}

func init() {
	if err := columnsgd.RegisterModel("poisson", poissonModel{}); err != nil {
		panic(err)
	}
}

// poissonData plants a sparse rate model and samples count labels.
func poissonData(t *testing.T, n, m int, seed int64) *columnsgd.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	truth := make([]float64, m)
	for i := range truth {
		truth[i] = r.NormFloat64() * 0.4
	}
	examples := make([]columnsgd.Example, n)
	for i := range examples {
		nnz := r.Intn(4) + 2
		seen := map[int32]bool{}
		var idx []int32
		var val []float64
		var s float64
		for len(idx) < nnz {
			j := int32(r.Intn(m))
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, j)
			val = append(val, 1)
			s += truth[j]
		}
		rate := math.Exp(s)
		// Sample a Poisson count via inversion.
		u := r.Float64()
		k, p, cdf := 0, math.Exp(-rate), math.Exp(-rate)
		for u > cdf && k < 50 {
			k++
			p *= rate / float64(k)
			cdf += p
		}
		examples[i] = columnsgd.Example{
			Label:    float64(k),
			Features: columnsgd.SparseVector{Indices: idx, Values: val},
		}
	}
	ds, err := columnsgd.FromExamples(examples, m)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRegisterModelValidation(t *testing.T) {
	if err := columnsgd.RegisterModel("bad", nil); err == nil {
		t.Error("nil model accepted")
	}
	if err := columnsgd.RegisterModel("lr", poissonModel{}); err == nil {
		t.Error("built-in override accepted")
	}
	if err := columnsgd.RegisterModel("poisson", poissonModel{}); err == nil {
		t.Error("duplicate registration accepted")
	}
	found := false
	for _, name := range columnsgd.RegisteredModels() {
		if name == "poisson" {
			found = true
		}
	}
	if !found {
		t.Error("poisson not listed in RegisteredModels")
	}
}

func TestCustomModelTrainsDistributed(t *testing.T) {
	ds := poissonData(t, 400, 30, 3)
	tr, err := columnsgd.NewTrainer(ds, columnsgd.Config{
		Model: "poisson", Workers: 4, BatchSize: 64,
		LearningRate: 0.05, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.FullLoss()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(200); err != nil {
		t.Fatal(err)
	}
	last, err := tr.FullLoss()
	if err != nil {
		t.Fatal(err)
	}
	if !(last < first) {
		t.Fatalf("poisson loss %v -> %v", first, last)
	}
	res, err := tr.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Predictions are rates (non-negative).
	p, err := res.Predict(columnsgd.SparseVector{Indices: []int32{0, 5}, Values: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || math.IsNaN(p) {
		t.Fatalf("rate prediction = %v", p)
	}
}

// The statistics decomposition must hold for the custom model too: K=1
// and K=4 runs produce identical final losses (same batches, same math).
func TestCustomModelPartitionInvariant(t *testing.T) {
	ds := poissonData(t, 200, 20, 7)
	run := func(workers int) float64 {
		res, err := columnsgd.Train(ds, columnsgd.Config{
			Model: "poisson", Workers: workers, BatchSize: 32,
			LearningRate: 0.05, Iterations: 60, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalLoss
	}
	l1 := run(1)
	l4 := run(4)
	if math.Abs(l1-l4) > 1e-9 {
		t.Fatalf("partitioning changed custom-model math: %v vs %v", l1, l4)
	}
}

// Custom models also ride the backup-computation and TCP paths.
func TestCustomModelBackupAndTCP(t *testing.T) {
	ds := poissonData(t, 150, 16, 11)
	if _, err := columnsgd.Train(ds, columnsgd.Config{
		Model: "poisson", Workers: 4, Backup: 1, BatchSize: 32,
		LearningRate: 0.05, Iterations: 30, Seed: 13,
	}); err != nil {
		t.Fatal(err)
	}

	srvA, err := columnsgd.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := columnsgd.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if _, err := columnsgd.Train(ds, columnsgd.Config{
		Model: "poisson", Workers: 2,
		WorkerAddrs:  []string{srvA.Addr(), srvB.Addr()},
		BatchSize:    32,
		LearningRate: 0.05, Iterations: 30, Seed: 13,
	}); err != nil {
		t.Fatal(err)
	}
}

// spillModel is the Poisson model plus a 1e-3·w shrinkage in every
// column of its gradient, so it writes outside the batch's columns —
// which a custom model may do, and the built-ins never do.
type spillModel struct{ poissonModel }

func (s spillModel) Gradient(params [][]float64, rows []columnsgd.SparseVector, labels []float64, stats []float64, grad [][]float64) {
	s.poissonModel.Gradient(params, rows, labels, stats, grad)
	for j, w := range params[0] {
		grad[0][j] += 1e-3 * w
	}
}

func init() {
	if err := columnsgd.RegisterModel("poisson-spill", spillModel{}); err != nil {
		panic(err)
	}
}

// TestCustomModelOffSupportGolden: on a shape sparse enough that the
// built-in models update only the batch's columns (2 workers × 1 000
// columns, at most ~110 non-zeros a partition batch), a custom model
// that writes every column keeps the dense path and trains to the same
// bits as before the support-only update existed; a built-in model
// trained next, in the same process and so on the same scratch pools,
// matches its own golden. Both hashes were recorded before that change.
func TestCustomModelOffSupportGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bits; the Go spec lets GOARCH=%s fuse multiply-adds", runtime.GOARCH)
	}
	ds := poissonData(t, 600, 2000, 17)
	run := func(mdl string, data *columnsgd.Dataset) uint64 {
		res, err := columnsgd.Train(data, columnsgd.Config{
			Model: columnsgd.ModelKind(mdl), Workers: 2, BatchSize: 64,
			LearningRate: 0.05, Iterations: 40, Seed: 19,
		})
		if err != nil {
			t.Fatal(err)
		}
		return weightsHash(res.Weights())
	}
	if got, want := run("poisson-spill", ds), uint64(0x3033d72ed8a5f42c); got != want {
		t.Errorf("custom model off-support golden: hash %#x, want %#x", got, want)
	}
	// Two non-zeros a row, one in each half of the columns, ±1 labels.
	r := rand.New(rand.NewSource(23))
	examples := make([]columnsgd.Example, 600)
	for i := range examples {
		idx := []int32{int32(r.Intn(1000)), int32(1000 + r.Intn(1000))}
		label := 1.0
		if r.Intn(2) == 0 {
			label = -1
		}
		examples[i] = columnsgd.Example{Label: label, Features: columnsgd.SparseVector{Indices: idx, Values: []float64{1, -0.5}}}
	}
	lr, err := columnsgd.FromExamples(examples, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run("lr", lr), uint64(0x458f58d8ee0665d0); got != want {
		t.Errorf("built-in model after a custom one: hash %#x, want %#x", got, want)
	}
}
