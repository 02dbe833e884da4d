package model

import (
	"fmt"
	"math/rand"
)

// FM is a degree-2 factorization machine with logistic loss (paper
// §VIII-D). The parameter block holds the linear weights w (row 0) and F
// factor vectors v_1..v_F (rows 1..F). Labels are ±1.
//
// Statistics per point (F+1 values, Eq. 10):
//
//	s0  = ⟨w,x⟩ − ½ Σ_f ⟨v_f², x²⟩        (partial per column partition)
//	d_f = ⟨v_f, x⟩                         for f = 1..F
//
// after aggregation the prediction is ŷ = s0 + ½ Σ_f d_f², and gradients
// follow Eq. 12–13:
//
//	∂w_j    = c · x_j
//	∂v_jf   = c · (x_j·d_f − v_jf·x_j²)    with c = −y/(1+exp(y·ŷ)).
type FM struct {
	factors int
}

// NewFM builds a factorization machine with F latent factors.
func NewFM(factors int) (FM, error) {
	if factors < 1 {
		return FM{}, fmt.Errorf("model: FM needs ≥1 factor, got %d", factors)
	}
	return FM{factors: factors}, nil
}

// Factors returns F.
func (m FM) Factors() int { return m.factors }

// Name implements Model.
func (m FM) Name() string { return fmt.Sprintf("fm%d", m.factors) }

// StatsPerPoint implements Model: F+1 statistics per point, exactly the
// communication volume the paper derives in §III-C.
func (m FM) StatsPerPoint() int { return m.factors + 1 }

// ParamRows implements Model: w plus F factor vectors.
func (m FM) ParamRows() int { return m.factors + 1 }

// Init implements Model: w = 0, v ~ N(0, 0.01²), the standard FM
// initialization (a zero V would have zero interaction gradient forever).
func (m FM) Init(p *Params, rng *rand.Rand) {
	p.Zero()
	for f := 1; f <= m.factors; f++ {
		for j := range p.W[f] {
			p.W[f][j] = rng.NormFloat64() * 0.01
		}
	}
}

// PartialStats implements Model.
func (m FM) PartialStats(p *Params, batch Batch, dst []float64) []float64 {
	dst = dst[:0]
	w := p.W[0]
	for i := range batch.Rows {
		x := batch.Rows[i]
		s0 := x.Dot(w)
		for f := 1; f <= m.factors; f++ {
			s0 -= 0.5 * x.DotSquared(p.W[f])
		}
		dst = append(dst, s0)
		for f := 1; f <= m.factors; f++ {
			dst = append(dst, x.Dot(p.W[f]))
		}
	}
	return dst
}

// yhat recovers the FM prediction from aggregated stats.
func (m FM) yhat(stats []float64) float64 {
	y := stats[0]
	for f := 1; f <= m.factors; f++ {
		y += 0.5 * stats[f] * stats[f]
	}
	return y
}

// PointLoss implements Model: logistic loss on the FM score.
func (m FM) PointLoss(label float64, stats []float64) float64 {
	return sigmoidLoss(label * m.yhat(stats))
}

// Gradient implements Model.
func (m FM) Gradient(p *Params, batch Batch, stats []float64, grad *Params) {
	spp := m.StatsPerPoint()
	inv := 1 / float64(batch.Len())
	for i := range batch.Rows {
		x := batch.Rows[i]
		st := stats[i*spp : (i+1)*spp]
		c := sigmoidCoeff(batch.Labels[i], m.yhat(st)) * inv
		if c == 0 {
			continue
		}
		// Linear part.
		x.AddScaled(grad.W[0], c)
		// Factor part: ∂v_jf = c·(x_j·d_f − v_jf·x_j²).
		for f := 1; f <= m.factors; f++ {
			df := st[f]
			gv := grad.W[f]
			v := p.W[f]
			for k, j := range x.Indices {
				xj := x.Values[k]
				gv[j] += c * (xj*df - v[j]*xj*xj)
			}
		}
	}
}

// Predict implements Model: sign of the FM score.
func (m FM) Predict(stats []float64) float64 {
	if m.yhat(stats) >= 0 {
		return 1
	}
	return -1
}
