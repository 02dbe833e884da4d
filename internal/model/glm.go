package model

import "math/rand"

// LR is binary logistic regression (paper §VIII-B). Statistics: one dot
// product ⟨w,x⟩ per point. Labels are ±1.
type LR struct{}

// Name implements Model.
func (LR) Name() string { return "lr" }

// StatsPerPoint implements Model.
func (LR) StatsPerPoint() int { return 1 }

// ParamRows implements Model.
func (LR) ParamRows() int { return 1 }

// Init implements Model; LR starts from the zero vector.
func (LR) Init(p *Params, _ *rand.Rand) { p.Zero() }

// PartialStats implements Model: partial dot products of each batch row
// against the local weight slice.
func (LR) PartialStats(p *Params, batch Batch, dst []float64) []float64 {
	dst = dst[:0]
	w := p.W[0]
	for i := range batch.Rows {
		dst = append(dst, batch.Rows[i].Dot(w))
	}
	return dst
}

// PointLoss implements Model: log(1+exp(-y·⟨w,x⟩)).
func (LR) PointLoss(label float64, stats []float64) float64 {
	return sigmoidLoss(label * stats[0])
}

// Gradient implements Model: g = (1/B)·Σ_i −y_i/(1+exp(y_i·s_i))·x_i.
func (LR) Gradient(p *Params, batch Batch, stats []float64, grad *Params) {
	g := grad.W[0]
	inv := 1 / float64(batch.Len())
	for i := range batch.Rows {
		c := sigmoidCoeff(batch.Labels[i], stats[i])
		batch.Rows[i].AddScaled(g, c*inv)
	}
}

// Predict implements Model: sign of the margin.
func (LR) Predict(stats []float64) float64 {
	if stats[0] >= 0 {
		return 1
	}
	return -1
}

// SVM is a linear support vector machine with hinge loss (paper §VIII-A).
// Statistics: one dot product per point. Labels are ±1.
type SVM struct{}

// Name implements Model.
func (SVM) Name() string { return "svm" }

// StatsPerPoint implements Model.
func (SVM) StatsPerPoint() int { return 1 }

// ParamRows implements Model.
func (SVM) ParamRows() int { return 1 }

// Init implements Model.
func (SVM) Init(p *Params, _ *rand.Rand) { p.Zero() }

// PartialStats implements Model.
func (SVM) PartialStats(p *Params, batch Batch, dst []float64) []float64 {
	dst = dst[:0]
	w := p.W[0]
	for i := range batch.Rows {
		dst = append(dst, batch.Rows[i].Dot(w))
	}
	return dst
}

// PointLoss implements Model: max(0, 1−y·⟨w,x⟩).
func (SVM) PointLoss(label float64, stats []float64) float64 {
	if margin := 1 - label*stats[0]; margin > 0 {
		return margin
	}
	return 0
}

// Gradient implements Model: subgradient −y·x for margin violations.
func (SVM) Gradient(p *Params, batch Batch, stats []float64, grad *Params) {
	g := grad.W[0]
	inv := 1 / float64(batch.Len())
	for i := range batch.Rows {
		y := batch.Labels[i]
		if 1-y*stats[i] > 0 {
			batch.Rows[i].AddScaled(g, -y*inv)
		}
	}
}

// Predict implements Model.
func (SVM) Predict(stats []float64) float64 {
	if stats[0] >= 0 {
		return 1
	}
	return -1
}

// LeastSquares is linear regression with squared loss — the "Least
// Squares" GLM the paper lists among supported models. Labels are real
// valued.
type LeastSquares struct{}

// Name implements Model.
func (LeastSquares) Name() string { return "linreg" }

// StatsPerPoint implements Model.
func (LeastSquares) StatsPerPoint() int { return 1 }

// ParamRows implements Model.
func (LeastSquares) ParamRows() int { return 1 }

// Init implements Model.
func (LeastSquares) Init(p *Params, _ *rand.Rand) { p.Zero() }

// PartialStats implements Model.
func (LeastSquares) PartialStats(p *Params, batch Batch, dst []float64) []float64 {
	dst = dst[:0]
	w := p.W[0]
	for i := range batch.Rows {
		dst = append(dst, batch.Rows[i].Dot(w))
	}
	return dst
}

// PointLoss implements Model: ½(⟨w,x⟩−y)².
func (LeastSquares) PointLoss(label float64, stats []float64) float64 {
	d := stats[0] - label
	return 0.5 * d * d
}

// Gradient implements Model: (⟨w,x⟩−y)·x averaged over the batch.
func (LeastSquares) Gradient(p *Params, batch Batch, stats []float64, grad *Params) {
	g := grad.W[0]
	inv := 1 / float64(batch.Len())
	for i := range batch.Rows {
		batch.Rows[i].AddScaled(g, (stats[i]-batch.Labels[i])*inv)
	}
}

// Predict implements Model: the regression value itself.
func (LeastSquares) Predict(stats []float64) float64 { return stats[0] }
