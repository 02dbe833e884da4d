package model

import (
	"fmt"
	"math"
	"math/rand"
)

// MLR is multinomial logistic regression over K classes (paper §VIII-C).
// The parameter block holds one weight vector per class; statistics are
// the K per-class dot products ⟨w_k, x⟩ for each point. Labels are class
// indices 0..K-1.
type MLR struct {
	classes int
}

// NewMLR builds a K-class multinomial logistic regression model.
func NewMLR(classes int) (MLR, error) {
	if classes < 2 {
		return MLR{}, fmt.Errorf("model: MLR needs ≥2 classes, got %d", classes)
	}
	return MLR{classes: classes}, nil
}

// Classes returns K.
func (m MLR) Classes() int { return m.classes }

// Name implements Model.
func (m MLR) Name() string { return fmt.Sprintf("mlr%d", m.classes) }

// StatsPerPoint implements Model: K dot products per point.
func (m MLR) StatsPerPoint() int { return m.classes }

// ParamRows implements Model: one weight vector per class.
func (m MLR) ParamRows() int { return m.classes }

// Init implements Model.
func (m MLR) Init(p *Params, _ *rand.Rand) { p.Zero() }

// PartialStats implements Model.
func (m MLR) PartialStats(p *Params, batch Batch, dst []float64) []float64 {
	dst = dst[:0]
	for i := range batch.Rows {
		for k := 0; k < m.classes; k++ {
			dst = append(dst, batch.Rows[i].Dot(p.W[k]))
		}
	}
	return dst
}

// softmax computes exp(s_k − max)/Σ into out, returning logΣexp for the
// loss (stable log-sum-exp form).
func softmax(stats []float64, out []float64) float64 {
	maxS := math.Inf(-1)
	for _, s := range stats {
		if s > maxS {
			maxS = s
		}
	}
	var sum float64
	for k, s := range stats {
		e := math.Exp(s - maxS)
		out[k] = e
		sum += e
	}
	for k := range out {
		out[k] /= sum
	}
	return maxS + math.Log(sum)
}

// PointLoss implements Model: cross-entropy −log softmax(s)_y.
func (m MLR) PointLoss(label float64, stats []float64) float64 {
	probs := make([]float64, m.classes)
	lse := softmax(stats, probs)
	return lse - stats[int(label)]
}

// Gradient implements Model: per class k, (softmax_k − 1{y=k})·x.
func (m MLR) Gradient(p *Params, batch Batch, stats []float64, grad *Params) {
	inv := 1 / float64(batch.Len())
	probs := make([]float64, m.classes)
	for i := range batch.Rows {
		s := stats[i*m.classes : (i+1)*m.classes]
		softmax(s, probs)
		y := int(batch.Labels[i])
		for k := 0; k < m.classes; k++ {
			c := probs[k]
			if k == y {
				c -= 1
			}
			batch.Rows[i].AddScaled(grad.W[k], c*inv)
		}
	}
}

// Predict implements Model: argmax class.
func (m MLR) Predict(stats []float64) float64 {
	best, bestS := 0, math.Inf(-1)
	for k, s := range stats {
		if s > bestS {
			best, bestS = k, s
		}
	}
	return float64(best)
}
