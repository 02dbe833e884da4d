// Package model implements the ML models the paper trains with ColumnSGD:
// logistic regression, SVM, least squares, multinomial logistic regression,
// and factorization machines (appendix §VIII).
//
// Every model is expressed through the statistics decomposition that makes
// column-parallel SGD possible: gradients are functions of per-point
// "statistics" (dot products and friends) that decompose into per-column-
// partition partial sums. The same interface drives both ColumnSGD (each
// worker computes partial statistics on its column slice) and RowSGD
// (each worker computes complete statistics on its full rows), so the two
// engines share one set of model kernels — and tests can assert that both
// paths produce bitwise-comparable gradients.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"columnsgd/internal/vec"
)

// Params is a block of model parameters covering some set of feature
// dimensions: Rows() vectors (1 for GLMs, K for MLR, 1+F for FM), each of
// the partition's width. In ColumnSGD each worker holds one Params block
// for its columns; in RowSGD the master (or the servers) hold a block
// covering all m dimensions.
type Params struct {
	W [][]float64
}

// NewParams allocates a zeroed rows×width block.
func NewParams(rows, width int) *Params {
	p := &Params{W: make([][]float64, rows)}
	for i := range p.W {
		p.W[i] = make([]float64, width)
	}
	return p
}

// Rows returns the number of parameter vectors.
func (p *Params) Rows() int { return len(p.W) }

// Width returns the feature width of the block.
func (p *Params) Width() int {
	if len(p.W) == 0 {
		return 0
	}
	return len(p.W[0])
}

// Clone returns a deep copy.
func (p *Params) Clone() *Params {
	q := &Params{W: make([][]float64, len(p.W))}
	for i := range p.W {
		q.W[i] = append([]float64(nil), p.W[i]...)
	}
	return q
}

// Zero clears all parameters in place.
func (p *Params) Zero() {
	for i := range p.W {
		vec.Zero(p.W[i])
	}
}

// Add accumulates q into p (shapes must match).
func (p *Params) Add(q *Params) error {
	if len(p.W) != len(q.W) {
		return fmt.Errorf("model: params row mismatch %d vs %d", len(p.W), len(q.W))
	}
	for i := range p.W {
		if len(p.W[i]) != len(q.W[i]) {
			return fmt.Errorf("model: params width mismatch at row %d", i)
		}
		vec.Axpy(p.W[i], 1, q.W[i])
	}
	return nil
}

// Scale multiplies all parameters by alpha.
func (p *Params) Scale(alpha float64) {
	for i := range p.W {
		vec.Scale(p.W[i], alpha)
	}
}

// NNZ counts non-zero parameters (sparse-push byte accounting).
func (p *Params) NNZ() int64 {
	var n int64
	for i := range p.W {
		for _, v := range p.W[i] {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// SizeBytes returns the dense in-memory footprint (8 bytes per entry).
func (p *Params) SizeBytes() int64 {
	var n int64
	for i := range p.W {
		n += int64(len(p.W[i])) * 8
	}
	return n
}

// Norm2 returns the Euclidean norm over all parameters.
func (p *Params) Norm2() float64 {
	var sum float64
	for i := range p.W {
		for _, v := range p.W[i] {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// Batch is a mini-batch view: local feature slices (column partition or
// full rows) plus the shared labels.
type Batch struct {
	Rows   []vec.Sparse
	Labels []float64
}

// Len returns the batch size.
func (b Batch) Len() int { return len(b.Rows) }

// NNZ sums the non-zeros across the batch's rows.
func (b Batch) NNZ() int64 {
	var n int64
	for i := range b.Rows {
		n += int64(b.Rows[i].NNZ())
	}
	return n
}

// Model defines a trainable model through the statistics decomposition.
//
// The per-iteration contract (Algorithm 3):
//  1. Each worker calls PartialStats on its local Params and column-sliced
//     batch, producing Len(batch)·StatsPerPoint partial statistics.
//  2. The master sums the per-worker statistics element-wise.
//  3. Each worker calls Gradient with the aggregated statistics to obtain
//     its local gradient block, which the optimizer applies.
//
// When the Params block covers all m dimensions and Rows are full feature
// vectors, PartialStats returns complete statistics and the same Gradient
// call computes the full-model gradient — the RowSGD path.
type Model interface {
	// Name identifies the model ("lr", "svm", ...).
	Name() string
	// StatsPerPoint returns the number of statistics per data point
	// (1 for GLMs, K for MLR, F+1 for FM). Communication per iteration
	// in ColumnSGD is 2·B·StatsPerPoint·8 bytes per worker.
	StatsPerPoint() int
	// ParamRows returns the number of parameter vectors per feature
	// (1 for GLMs, K for MLR, 1+F for FM).
	ParamRows() int
	// Init fills a zeroed Params block with the model's initial values
	// (e.g. FM factor matrices need small random entries).
	Init(p *Params, rng *rand.Rand)
	// PartialStats computes the partial statistics of the batch against
	// the local parameter block, appending into dst (which it returns,
	// resized to batch.Len()·StatsPerPoint).
	PartialStats(p *Params, batch Batch, dst []float64) []float64
	// PointLoss evaluates one point's loss from its aggregated stats.
	PointLoss(label float64, stats []float64) float64
	// Gradient computes the local gradient block (same shape as p) for
	// the batch given aggregated statistics, averaged over the batch.
	// grad arrives zeroed, and the built-in models only accumulate into
	// it (they never clear), writing only the columns the batch's rows
	// index; ParallelGradient relies on both to merge chunks sparsely.
	Gradient(p *Params, batch Batch, stats []float64, grad *Params)
	// Predict maps one point's aggregated statistics to a predicted
	// label (±1 for binary models, class index for MLR).
	Predict(stats []float64) float64
}

// New constructs a model by name: the built-ins "lr", "svm", "linreg",
// "mlr" (arg = classes), "fm" (arg = factors), or any custom model
// installed with Register.
func New(name string, arg int) (Model, error) {
	switch name {
	case "lr":
		return LR{}, nil
	case "svm":
		return SVM{}, nil
	case "linreg":
		return LeastSquares{}, nil
	case "mlr":
		return NewMLR(arg)
	case "fm":
		return NewFM(arg)
	}
	if m, err, ok := lookup(name, arg); ok {
		return m, err
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// BatchLoss averages PointLoss over a batch given its aggregated stats.
func BatchLoss(m Model, labels []float64, stats []float64) float64 {
	spp := m.StatsPerPoint()
	if len(labels)*spp != len(stats) {
		panic(fmt.Sprintf("model: %d labels need %d stats, got %d", len(labels), len(labels)*spp, len(stats)))
	}
	var sum float64
	for i, y := range labels {
		sum += m.PointLoss(y, stats[i*spp:(i+1)*spp])
	}
	return sum / float64(len(labels))
}

// sigmoidLoss returns log(1+exp(-z)) computed stably.
func sigmoidLoss(z float64) float64 {
	if z > 0 {
		return math.Log1p(math.Exp(-z))
	}
	return -z + math.Log1p(math.Exp(z))
}

// sigmoidCoeff returns -y/(1+exp(y·s)), the logistic gradient coefficient,
// computed stably.
func sigmoidCoeff(y, s float64) float64 {
	z := y * s
	if z > 35 {
		return 0 // fully saturated; avoid exp overflow in the other branch
	}
	return -y / (1 + math.Exp(z))
}
