// Float32 twins of the statistics/gradient kernels. Under the f32
// precision mode, workers hold their parameter blocks, optimizer state,
// and row values in float32 and run these kernels instead of the f64
// ones; statistics cross the protocol widened to float64 (exactly — the
// widening is lossless), so message shapes never change with precision.
//
// Loss and prediction stay in float64: they are per-point functions of
// the aggregated statistics (PointLoss/Predict on widened values), not
// per-non-zero loops, so f64 there costs nothing and keeps reported
// metrics comparable across precisions.
package model

import (
	"fmt"
	"math"

	"columnsgd/internal/vec"
)

// Params32 is the float32 twin of Params: Rows() parameter vectors of the
// partition's width, held in float32.
type Params32 struct {
	W [][]float32
}

// NewParams32 allocates a zeroed rows×width float32 block.
func NewParams32(rows, width int) *Params32 {
	p := &Params32{W: make([][]float32, rows)}
	for i := range p.W {
		p.W[i] = make([]float32, width)
	}
	return p
}

// Rows returns the number of parameter vectors.
func (p *Params32) Rows() int { return len(p.W) }

// Width returns the feature width of the block.
func (p *Params32) Width() int {
	if len(p.W) == 0 {
		return 0
	}
	return len(p.W[0])
}

// Clone returns a deep copy.
func (p *Params32) Clone() *Params32 {
	q := &Params32{W: make([][]float32, len(p.W))}
	for i := range p.W {
		q.W[i] = append([]float32(nil), p.W[i]...)
	}
	return q
}

// Zero clears all parameters in place.
func (p *Params32) Zero() {
	for i := range p.W {
		vec.Zero32(p.W[i])
	}
}

// Widen expands p to a float64 Params block (exact).
func (p *Params32) Widen() *Params {
	q := &Params{W: make([][]float64, len(p.W))}
	for i := range p.W {
		q.W[i] = vec.Widen(nil, p.W[i])
	}
	return q
}

// NarrowParams rounds a float64 Params block to float32. Model
// initialization runs in f64 and narrows, so f32 replicas start from the
// rounding of the exact same values a f64 run would use.
func NarrowParams(p *Params) *Params32 {
	q := &Params32{W: make([][]float32, len(p.W))}
	for i := range p.W {
		q.W[i] = vec.Narrow(nil, p.W[i])
	}
	return q
}

// Batch32 is a mini-batch view in float32: local feature slices plus the
// shared labels. Labels stay float64 — they are class tags / targets
// consumed by the f64 loss, never part of the per-non-zero loops.
type Batch32 struct {
	Rows   []vec.Sparse32
	Labels []float64
}

// Len returns the batch size.
func (b Batch32) Len() int { return len(b.Rows) }

// NNZ sums the non-zeros across the batch's rows.
func (b Batch32) NNZ() int64 {
	var n int64
	for i := range b.Rows {
		n += int64(b.Rows[i].NNZ())
	}
	return n
}

// Kernel32 is the float32 compute path of a model. The contract mirrors
// Model exactly — PartialStats32 fills batch.Len()·StatsPerPoint slots,
// Gradient32 averages over the batch — with parameters, rows, statistics,
// and gradients all in float32. All built-in models implement it; custom
// models that do not are rejected by the f32 precision mode up front.
type Kernel32 interface {
	// PartialStats32 computes partial statistics of the batch against the
	// local float32 parameter block, appending into dst (returned resized
	// to batch.Len()·StatsPerPoint).
	PartialStats32(p *Params32, batch Batch32, dst []float32) []float32
	// Gradient32 computes the local gradient block (same shape as p) for
	// the batch given aggregated statistics, averaged over the batch.
	// grad must arrive zeroed: implementations only accumulate (they
	// never clear), so ParallelGradient32's pooled chunk scratch can
	// stay clean across steps instead of paying a full-width memclr per
	// chunk — the same contract as Model.Gradient.
	Gradient32(p *Params32, batch Batch32, stats []float32, grad *Params32)
}

// Kernel32Of returns the model's float32 kernels, if it provides them.
func Kernel32Of(m Model) (Kernel32, bool) {
	k, ok := m.(Kernel32)
	return k, ok
}

// sigmoidCoeff32 is the float32 logistic gradient coefficient:
// -y/(1+e^{y·s}) with the same z>35 saturation guard as the f64
// sigmoidCoeff. The exponential is vec.Exp32 — per-point rather than
// per-non-zero, but profiles show math.Exp at ~15% of the f32 engine
// step, and the ~2 ulp f32 exp lands well inside the differential
// harness's loss band.
func sigmoidCoeff32(y float64, s float32) float32 {
	z := float32(y) * s
	if z > 35 {
		return 0
	}
	return float32(-y) / (1 + vec.Exp32(z))
}

// PartialStats32 implements Kernel32 for logistic regression.
func (LR) PartialStats32(p *Params32, batch Batch32, dst []float32) []float32 {
	dst = dst[:0]
	w := p.W[0]
	for i := range batch.Rows {
		dst = append(dst, batch.Rows[i].Dot(w))
	}
	return dst
}

// Gradient32 implements Kernel32 for logistic regression.
func (LR) Gradient32(p *Params32, batch Batch32, stats []float32, grad *Params32) {
	g := grad.W[0]
	inv := 1 / float32(batch.Len())
	for i := range batch.Rows {
		c := sigmoidCoeff32(batch.Labels[i], stats[i])
		batch.Rows[i].AddScaled(g, c*inv)
	}
}

// PartialStats32 implements Kernel32 for the linear SVM.
func (SVM) PartialStats32(p *Params32, batch Batch32, dst []float32) []float32 {
	dst = dst[:0]
	w := p.W[0]
	for i := range batch.Rows {
		dst = append(dst, batch.Rows[i].Dot(w))
	}
	return dst
}

// Gradient32 implements Kernel32 for the linear SVM.
func (SVM) Gradient32(p *Params32, batch Batch32, stats []float32, grad *Params32) {
	g := grad.W[0]
	inv := 1 / float32(batch.Len())
	for i := range batch.Rows {
		y := batch.Labels[i]
		if 1-y*float64(stats[i]) > 0 {
			batch.Rows[i].AddScaled(g, float32(-y)*inv)
		}
	}
}

// PartialStats32 implements Kernel32 for least squares.
func (LeastSquares) PartialStats32(p *Params32, batch Batch32, dst []float32) []float32 {
	dst = dst[:0]
	w := p.W[0]
	for i := range batch.Rows {
		dst = append(dst, batch.Rows[i].Dot(w))
	}
	return dst
}

// Gradient32 implements Kernel32 for least squares.
func (LeastSquares) Gradient32(p *Params32, batch Batch32, stats []float32, grad *Params32) {
	g := grad.W[0]
	inv := 1 / float32(batch.Len())
	for i := range batch.Rows {
		batch.Rows[i].AddScaled(g, (stats[i]-float32(batch.Labels[i]))*inv)
	}
}

// PartialStats32 implements Kernel32 for multinomial logistic regression.
func (m MLR) PartialStats32(p *Params32, batch Batch32, dst []float32) []float32 {
	dst = dst[:0]
	for i := range batch.Rows {
		for k := 0; k < m.classes; k++ {
			dst = append(dst, batch.Rows[i].Dot(p.W[k]))
		}
	}
	return dst
}

// softmax32 computes the stable softmax of the f32 statistics into out
// with vec.Exp32. Max-subtraction keeps every exponent ≤ 0, and the sum
// runs sequentially over K classes, so the result is deterministic and
// within a few ulps of the f64 softmax rounded to f32.
func softmax32(stats []float32, out []float32) {
	maxS := float32(math.Inf(-1))
	for _, s := range stats {
		if s > maxS {
			maxS = s
		}
	}
	var sum float32
	for k, s := range stats {
		e := vec.Exp32(s - maxS)
		out[k] = e
		sum += e
	}
	inv := 1 / sum
	for k := range out {
		out[k] *= inv
	}
}

// Gradient32 implements Kernel32 for multinomial logistic regression.
func (m MLR) Gradient32(p *Params32, batch Batch32, stats []float32, grad *Params32) {
	inv := 1 / float32(batch.Len())
	probs := make([]float32, m.classes)
	for i := range batch.Rows {
		s := stats[i*m.classes : (i+1)*m.classes]
		softmax32(s, probs)
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

// PartialStats32 implements Kernel32 for factorization machines.
func (m FM) PartialStats32(p *Params32, batch Batch32, dst []float32) []float32 {
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

// yhat32 recovers the FM prediction from aggregated f32 stats.
func (m FM) yhat32(stats []float32) float32 {
	y := stats[0]
	for f := 1; f <= m.factors; f++ {
		y += 0.5 * stats[f] * stats[f]
	}
	return y
}

// Gradient32 implements Kernel32 for factorization machines.
func (m FM) Gradient32(p *Params32, batch Batch32, stats []float32, grad *Params32) {
	spp := m.StatsPerPoint()
	inv := 1 / float32(batch.Len())
	for i := range batch.Rows {
		x := batch.Rows[i]
		st := stats[i*spp : (i+1)*spp]
		c := sigmoidCoeff32(batch.Labels[i], m.yhat32(st)) * inv
		if c == 0 {
			continue
		}
		x.AddScaled(grad.W[0], c)
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

// BatchLoss32 averages PointLoss over a batch given aggregated f32
// statistics, widening per point into a small stack scratch. Loss is a
// reported metric, so it stays float64.
func BatchLoss32(m Model, labels []float64, stats []float32) float64 {
	spp := m.StatsPerPoint()
	if len(labels)*spp != len(stats) {
		panic(fmt.Sprintf("model: %d labels need %d stats, got %d", len(labels), len(labels)*spp, len(stats)))
	}
	var ptBuf [8]float64
	pt := ptBuf[:0]
	var sum float64
	for i, y := range labels {
		pt = vec.Widen(pt, stats[i*spp:(i+1)*spp])
		sum += m.PointLoss(y, pt)
	}
	return sum / float64(len(labels))
}
