// Package opt implements the SGD update rules the paper supports
// (Algorithm 3, line 20 — "depends on the variant of SGD in use"):
// vanilla SGD, momentum, AdaGrad, and Adam, each with optional L1/L2
// regularization.
//
// Optimizer state is shaped like the parameter block it updates, so in
// ColumnSGD the state is itself column-partitioned and lives on the worker
// that owns the partition — no optimizer state ever crosses the network.
package opt

import (
	"fmt"
	"math"

	"columnsgd/internal/model"
	"columnsgd/internal/vec"
)

// Config selects and parameterizes an optimizer.
type Config struct {
	// Algo is one of "sgd", "momentum", "adagrad", "adam".
	Algo string
	// LR is the learning rate η.
	LR float64
	// L2 is the coefficient of ½λ‖w‖² (weight decay).
	L2 float64
	// L1 is the coefficient of λ‖w‖₁ (subgradient treatment).
	L1 float64
	// Momentum is the momentum coefficient (momentum only).
	Momentum float64
	// Beta1, Beta2, Eps are Adam's parameters (defaults 0.9/0.999/1e-8).
	Beta1, Beta2, Eps float64
}

// Optimizer applies gradient blocks to parameter blocks, maintaining any
// per-dimension state between calls.
type Optimizer interface {
	// Name identifies the update rule.
	Name() string
	// Apply performs one update of p given the batch gradient g. The two
	// blocks must have identical shape across all calls.
	Apply(p, g *model.Params) error
	// Reset clears the optimizer state (used when a worker restarts and
	// its parameter partition is reinitialized).
	Reset()
	// Snapshot returns the per-dimension state blocks and the step count,
	// so a partition can migrate between workers without perturbing the
	// update rule. A stateless or not-yet-stepped optimizer returns
	// (nil, 0). Blocks are copies; mutating them does not touch the
	// optimizer.
	Snapshot() ([]*model.Params, int)
	// Restore installs state captured by Snapshot on a same-configured
	// optimizer. (nil, 0) resets. Block count or shape mismatches are
	// errors, never silent truncation.
	Restore(blocks []*model.Params, steps int) error
}

// New constructs an optimizer from a config.
func New(cfg Config) (Optimizer, error) {
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("opt: learning rate must be positive, got %g", cfg.LR)
	}
	if cfg.L1 < 0 || cfg.L2 < 0 {
		return nil, fmt.Errorf("opt: regularization must be non-negative")
	}
	switch cfg.Algo {
	case "", "sgd":
		return &sgd{cfg: cfg}, nil
	case "momentum":
		if cfg.Momentum <= 0 || cfg.Momentum >= 1 {
			return nil, fmt.Errorf("opt: momentum must be in (0,1), got %g", cfg.Momentum)
		}
		return &momentum{cfg: cfg}, nil
	case "adagrad":
		if cfg.Eps == 0 {
			cfg.Eps = 1e-8
		}
		return &adagrad{cfg: cfg}, nil
	case "adam":
		if cfg.Beta1 == 0 {
			cfg.Beta1 = 0.9
		}
		if cfg.Beta2 == 0 {
			cfg.Beta2 = 0.999
		}
		if cfg.Eps == 0 {
			cfg.Eps = 1e-8
		}
		if cfg.Beta1 >= 1 || cfg.Beta2 >= 1 {
			return nil, fmt.Errorf("opt: adam betas must be < 1")
		}
		return &adam{cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("opt: unknown algorithm %q", cfg.Algo)
	}
}

func checkShapes(p, g *model.Params) error {
	if p.Rows() != g.Rows() || p.Width() != g.Width() {
		return fmt.Errorf("opt: shape mismatch: params %dx%d vs grad %dx%d",
			p.Rows(), p.Width(), g.Rows(), g.Width())
	}
	return nil
}

// regularize folds L2 (and an L1 subgradient) into the raw gradient value
// for parameter w.
func regularize(cfg Config, w, g float64) float64 {
	g += cfg.L2 * w
	if cfg.L1 > 0 {
		switch {
		case w > 0:
			g += cfg.L1
		case w < 0:
			g -= cfg.L1
		}
	}
	return g
}

// supportRule is implemented by the update rules that, unregularised,
// leave a finite weight and their own state bit-for-bit unchanged
// wherever g is +0: w − η·(+0) is w, and AdaGrad's h + 0·0 is h.
type supportRule interface {
	// supportReady checks shapes, readies the rule's state for p, and
	// reports whether the configuration qualifies: it does not when it
	// moves weights where g is zero.
	supportReady(p, g *model.Params) (bool, error)
	// stepAt updates slot j of parameter row r.
	stepAt(p, g *model.Params, r, j int)
}

// sparseConfig reports whether cfg leaves a weight alone where its
// gradient is +0: no regulariser, and a finite learning rate (∞·0 is NaN).
func sparseConfig(cfg Config) bool {
	return cfg.L1 == 0 && cfg.L2 == 0 && cfg.LR < math.Inf(1)
}

// ApplySupport is o.Apply for a gradient that is zero outside the
// columns rows index (the batch support), and it leaves g all-zero.
// Unregularised sgd and adagrad update only the support, in
// O(nnz·rows) instead of O(width·rows); elsewhere their update would
// leave every finite weight bit-for-bit as it is, so the result equals
// Apply's. A column indexed twice is stepped twice, but the second
// step meets the drained +0 and changes nothing. Every other rule —
// momentum, adam, any L1/L2 — moves weights where g is zero, so it runs
// the dense Apply and then clears g at the support.
//
// The two paths differ only on non-finite weights: Apply turns a +Inf
// weight off the support into NaN (0·Inf in regularize), ApplySupport
// never visits it.
func ApplySupport(o Optimizer, p, g *model.Params, rows []vec.Sparse) error {
	s, support := o.(supportRule)
	if support {
		var err error
		if support, err = s.supportReady(p, g); err != nil {
			return err
		}
	}
	if !support {
		if err := o.Apply(p, g); err != nil {
			return err
		}
	}
	width := g.Width()
	for _, x := range rows {
		for _, j := range x.Indices {
			if int(j) >= width {
				continue
			}
			for r := range g.W {
				if support {
					s.stepAt(p, g, r, int(j))
				}
				g.W[r][j] = 0
			}
		}
	}
	return nil
}

// cloneBlocks copies optimizer state blocks for Snapshot.
func cloneBlocks(blocks ...*model.Params) []*model.Params {
	out := make([]*model.Params, len(blocks))
	for i, b := range blocks {
		out[i] = b.Clone()
	}
	return out
}

// checkBlocks validates a Restore payload's block count.
func checkBlocks(name string, blocks []*model.Params, want int) error {
	if len(blocks) != want {
		return fmt.Errorf("opt: %s restore: got %d state blocks, want %d", name, len(blocks), want)
	}
	return nil
}

type sgd struct{ cfg Config }

func (s *sgd) Name() string                     { return "sgd" }
func (s *sgd) Reset()                           {}
func (s *sgd) Snapshot() ([]*model.Params, int) { return nil, 0 }
func (s *sgd) Restore(blocks []*model.Params, steps int) error {
	return checkBlocks("sgd", blocks, 0)
}
func (s *sgd) Apply(p, g *model.Params) error {
	if err := checkShapes(p, g); err != nil {
		return err
	}
	for r := range p.W {
		pw, gw := p.W[r], g.W[r]
		for j := range pw {
			pw[j] -= s.cfg.LR * regularize(s.cfg, pw[j], gw[j])
		}
	}
	return nil
}
func (s *sgd) supportReady(p, g *model.Params) (bool, error) {
	if err := checkShapes(p, g); err != nil {
		return false, err
	}
	return sparseConfig(s.cfg), nil
}
func (s *sgd) stepAt(p, g *model.Params, r, j int) {
	pw := p.W[r]
	pw[j] -= s.cfg.LR * regularize(s.cfg, pw[j], g.W[r][j])
}

type momentum struct {
	cfg Config
	v   *model.Params
}

func (m *momentum) Name() string { return "momentum" }
func (m *momentum) Reset()       { m.v = nil }
func (m *momentum) Snapshot() ([]*model.Params, int) {
	if m.v == nil {
		return nil, 0
	}
	return cloneBlocks(m.v), 0
}
func (m *momentum) Restore(blocks []*model.Params, steps int) error {
	if len(blocks) == 0 {
		m.Reset()
		return nil
	}
	if err := checkBlocks("momentum", blocks, 1); err != nil {
		return err
	}
	m.v = blocks[0].Clone()
	return nil
}
func (m *momentum) Apply(p, g *model.Params) error {
	if err := checkShapes(p, g); err != nil {
		return err
	}
	if m.v == nil {
		m.v = model.NewParams(p.Rows(), p.Width())
	} else if err := checkShapes(p, m.v); err != nil {
		return fmt.Errorf("opt: momentum state stale: %w", err)
	}
	for r := range p.W {
		pw, gw, vw := p.W[r], g.W[r], m.v.W[r]
		for j := range pw {
			vw[j] = m.cfg.Momentum*vw[j] + regularize(m.cfg, pw[j], gw[j])
			pw[j] -= m.cfg.LR * vw[j]
		}
	}
	return nil
}

type adagrad struct {
	cfg Config
	h   *model.Params // accumulated squared gradients
}

func (a *adagrad) Name() string { return "adagrad" }
func (a *adagrad) Reset()       { a.h = nil }
func (a *adagrad) Snapshot() ([]*model.Params, int) {
	if a.h == nil {
		return nil, 0
	}
	return cloneBlocks(a.h), 0
}
func (a *adagrad) Restore(blocks []*model.Params, steps int) error {
	if len(blocks) == 0 {
		a.Reset()
		return nil
	}
	if err := checkBlocks("adagrad", blocks, 1); err != nil {
		return err
	}
	a.h = blocks[0].Clone()
	return nil
}
func (a *adagrad) ready(p, g *model.Params) error {
	if err := checkShapes(p, g); err != nil {
		return err
	}
	if a.h == nil {
		a.h = model.NewParams(p.Rows(), p.Width())
	} else if err := checkShapes(p, a.h); err != nil {
		return fmt.Errorf("opt: adagrad state stale: %w", err)
	}
	return nil
}
func (a *adagrad) supportReady(p, g *model.Params) (bool, error) {
	if err := a.ready(p, g); err != nil {
		return false, err
	}
	// ε > 0 keeps η·(+0)/(√h+ε) at +0 where h is still 0.
	return sparseConfig(a.cfg) && a.cfg.Eps > 0, nil
}
func (a *adagrad) stepAt(p, g *model.Params, r, j int) {
	pw, hw := p.W[r], a.h.W[r]
	grad := regularize(a.cfg, pw[j], g.W[r][j])
	hw[j] += grad * grad
	pw[j] -= a.cfg.LR * grad / (math.Sqrt(hw[j]) + a.cfg.Eps)
}
func (a *adagrad) Apply(p, g *model.Params) error {
	if err := a.ready(p, g); err != nil {
		return err
	}
	for r := range p.W {
		pw, gw, hw := p.W[r], g.W[r], a.h.W[r]
		for j := range pw {
			grad := regularize(a.cfg, pw[j], gw[j])
			hw[j] += grad * grad
			pw[j] -= a.cfg.LR * grad / (math.Sqrt(hw[j]) + a.cfg.Eps)
		}
	}
	return nil
}

type adam struct {
	cfg  Config
	m, v *model.Params
	t    int
}

func (a *adam) Name() string { return "adam" }
func (a *adam) Reset()       { a.m, a.v, a.t = nil, nil, 0 }
func (a *adam) Snapshot() ([]*model.Params, int) {
	if a.m == nil {
		return nil, 0
	}
	return cloneBlocks(a.m, a.v), a.t
}
func (a *adam) Restore(blocks []*model.Params, steps int) error {
	if len(blocks) == 0 {
		a.Reset()
		return nil
	}
	if err := checkBlocks("adam", blocks, 2); err != nil {
		return err
	}
	if err := checkShapes(blocks[0], blocks[1]); err != nil {
		return fmt.Errorf("opt: adam restore: %w", err)
	}
	a.m, a.v, a.t = blocks[0].Clone(), blocks[1].Clone(), steps
	return nil
}
func (a *adam) Apply(p, g *model.Params) error {
	if err := checkShapes(p, g); err != nil {
		return err
	}
	if a.m == nil {
		a.m = model.NewParams(p.Rows(), p.Width())
		a.v = model.NewParams(p.Rows(), p.Width())
	} else if err := checkShapes(p, a.m); err != nil {
		return fmt.Errorf("opt: adam state stale: %w", err)
	}
	a.t++
	bc1 := 1 - math.Pow(a.cfg.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.cfg.Beta2, float64(a.t))
	for r := range p.W {
		pw, gw, mw, vw := p.W[r], g.W[r], a.m.W[r], a.v.W[r]
		for j := range pw {
			grad := regularize(a.cfg, pw[j], gw[j])
			mw[j] = a.cfg.Beta1*mw[j] + (1-a.cfg.Beta1)*grad
			vw[j] = a.cfg.Beta2*vw[j] + (1-a.cfg.Beta2)*grad*grad
			mhat := mw[j] / bc1
			vhat := vw[j] / bc2
			pw[j] -= a.cfg.LR * mhat / (math.Sqrt(vhat) + a.cfg.Eps)
		}
	}
	return nil
}
