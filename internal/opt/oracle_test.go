package opt

import (
	"math"
	"testing"

	"columnsgd/internal/model"
	"columnsgd/internal/vec"
)

// The oracle tables below are worked by hand from the published update
// rules in 60-digit decimal arithmetic, then rounded to float64 — they
// are not recorded from this package. Every table starts from oracleW0
// and steps through oracleG; column 3 never has a gradient, so it moves
// only under a rule that regularises.
//
//	sgd       w ← w − η·g                                 η = 0.1
//	momentum  v ← μ·v + (g + λ·w);  w ← w − η·v            η = 0.1, μ = 0.9, λ = 0.05 (L2)
//	adagrad   h ← h + g²;  w ← w − η·g/(√h + ε)            η = 0.1, ε = 1e-8 (Duchi et al. 2011)
//	adam      m ← β₁m + (1−β₁)g;  v ← β₂v + (1−β₂)g²;
//	          w ← w − α·m̂/(√v̂ + ε), m̂ = m/(1−β₁ᵗ), v̂ = v/(1−β₂ᵗ)
//	                                                      α = 0.01, β = 0.9/0.999, ε = 1e-8 (Kingma & Ba 2015)
var (
	oracleW0 = []float64{0.5, -1.25, 2.0, 0.75}
	oracleG  = [][]float64{
		{0.3, -0.7, 0.001, 0},
		{-0.2, 0.4, 0.002, 0},
		{0.1, 0.9, -0.0005, 0},
	}
	// oracleRows is the batch support: columns 0–2, column 1 indexed
	// twice, column 3 not at all.
	oracleRows = []vec.Sparse{
		{Indices: []int32{0, 1}, Values: []float64{1, 1}},
		{Indices: []int32{1, 2}, Values: []float64{1, 1}},
	}
)

var oracles = []struct {
	cfg  Config
	want [3][]float64 // weights after t = 1, 2, 3
}{
	{Config{Algo: "sgd", LR: 0.1}, [3][]float64{
		{0.46999999999999997, -1.1799999999999999, 1.9999, 0.75},
		{0.48999999999999999, -1.22, 1.9997, 0.75},
		{0.47999999999999998, -1.3100000000000001, 1.9997499999999999, 0.75},
	}},
	{Config{Algo: "momentum", LR: 0.1, Momentum: 0.9, L2: 0.05}, [3][]float64{
		{0.46750000000000003, -1.1737500000000001, 1.9899, 0.74624999999999997},
		{0.4559125, -1.1392562500000001, 1.9706604999999999, 0.73914374999999999},
		{0.4332041875, -1.19251559375, 1.9435416475, 0.72905240625000001},
	}},
	{Config{Algo: "adagrad", LR: 0.1}, [3][]float64{
		{0.40000000333333324, -1.1500000014285714, 1.9000009999900001, 0.75},
		{0.45547002141739462, -1.1996138946488701, 1.8105586808882197, 0.75},
		{0.42874389794043788, -1.2740984240066449, 1.8323803746741394, 0.75},
	}},
	{Config{Algo: "adam", LR: 0.01}, [3][]float64{
		{0.4900000003333333, -1.2400000001428571, 1.990000099999, 0.75},
		{0.48855479509285965, -1.2378763268593067, 1.9803483407747084, 0.75},
		{0.48576970608345971, -1.2415415506777912, 1.9744623179447531, 0.75},
	}},
}

// TestOptimizerOracles steps every rule through its table, via Apply
// and via ApplySupport. The tolerance is float64 rounding over three
// steps; each of Adam without its 1−β₂ᵗ correction, ε inside AdaGrad's
// square root and momentum without the L2 term misses a table by more
// than 1e-4.
func TestOptimizerOracles(t *testing.T) {
	for _, tc := range oracles {
		for _, support := range []bool{false, true} {
			o, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := &model.Params{W: [][]float64{append([]float64(nil), oracleW0...)}}
			for step, g := range oracleG {
				grad := &model.Params{W: [][]float64{append([]float64(nil), g...)}}
				if support {
					err = ApplySupport(o, p, grad, oracleRows)
				} else {
					err = o.Apply(p, grad)
				}
				if err != nil {
					t.Fatal(err)
				}
				for j, want := range tc.want[step] {
					if got := p.W[0][j]; math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
						t.Errorf("%s support=%v t=%d w[%d] = %.17g, want %.17g", tc.cfg.Algo, support, step+1, j, got, want)
					}
				}
				if support && grad.NNZ() != 0 {
					t.Errorf("%s t=%d: ApplySupport left %d gradient slots set", tc.cfg.Algo, step+1, grad.NNZ())
				}
			}
		}
	}
}

// TestApplySupportVisitsOnlyTheSupport proves which columns each path
// touches by planting +Inf off the batch support: a dense visit turns
// it into NaN (0·Inf in regularize), a support-only apply never sees it.
// Unregularised sgd and adagrad must leave it alone; momentum, adam and
// any L2 > 0 are dense by their maths and must still reach it. On the
// support, both paths must agree bit for bit.
func TestApplySupportVisitsOnlyTheSupport(t *testing.T) {
	const width = 6
	rows := []vec.Sparse{
		{Indices: []int32{1, 4}, Values: []float64{1, 1}},
		{Indices: []int32{4}, Values: []float64{1}},
	}
	onSupport := map[int]bool{1: true, 4: true}
	cases := []struct {
		cfg         Config
		supportOnly bool
	}{
		{Config{Algo: "sgd", LR: 0.1}, true},
		{Config{Algo: "adagrad", LR: 0.1}, true},
		{Config{Algo: "sgd", LR: 0.1, L2: 0.01}, false},
		{Config{Algo: "adagrad", LR: 0.1, L2: 0.01}, false},
		{Config{Algo: "momentum", LR: 0.1, Momentum: 0.9}, false},
		{Config{Algo: "adam", LR: 0.1}, false},
	}
	for _, tc := range cases {
		name := tc.cfg.Algo
		if tc.cfg.L2 > 0 {
			name += "+l2"
		}
		dense, _ := New(tc.cfg)
		sparse, _ := New(tc.cfg)
		pd, ps := model.NewParams(2, width), model.NewParams(2, width)
		for r := range pd.W {
			for j := range pd.W[r] {
				v := math.Inf(1)
				if onSupport[j] {
					v = 0.25 * float64(r+j)
				}
				pd.W[r][j], ps.W[r][j] = v, v
			}
		}
		for step := 0; step < 2; step++ {
			gd, gs := model.NewParams(2, width), model.NewParams(2, width)
			for r := range gd.W {
				for j := range onSupport {
					v := 0.1*float64(j) - 0.3*float64(r+step)
					gd.W[r][j], gs.W[r][j] = v, v
				}
			}
			if err := dense.Apply(pd, gd); err != nil {
				t.Fatal(err)
			}
			if err := ApplySupport(sparse, ps, gs, rows); err != nil {
				t.Fatal(err)
			}
			if gs.NNZ() != 0 {
				t.Fatalf("%s: ApplySupport left %d gradient slots set", name, gs.NNZ())
			}
		}
		for r := range ps.W {
			for j := range ps.W[r] {
				got := ps.W[r][j]
				if onSupport[j] {
					if math.Float64bits(got) != math.Float64bits(pd.W[r][j]) {
						t.Errorf("%s: support w[%d][%d] = %v, Apply gives %v", name, r, j, got, pd.W[r][j])
					}
					continue
				}
				if !math.IsNaN(pd.W[r][j]) {
					t.Fatalf("%s: dense Apply left off-support +Inf as %v; the probe is broken", name, pd.W[r][j])
				}
				if tc.supportOnly && !math.IsInf(got, 1) {
					t.Errorf("%s: off-support w[%d][%d] = %v, want it untouched (+Inf)", name, r, j, got)
				}
				if !tc.supportOnly && !math.IsNaN(got) {
					t.Errorf("%s: off-support w[%d][%d] = %v, want the dense visit's NaN", name, r, j, got)
				}
			}
		}
	}
}

// TestApplySupportAllocatesNothing: the support path runs once per
// partition per round on the worker, so it must not add to the
// worker's per-round allocations.
func TestApplySupportAllocatesNothing(t *testing.T) {
	for _, algo := range []string{"sgd", "adagrad", "momentum"} {
		o, err := New(Config{Algo: algo, LR: 0.1, Momentum: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		p, g := model.NewParams(2, 64), model.NewParams(2, 64)
		if err := ApplySupport(o, p, g, oracleRows); err != nil { // first call allocates the state
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			g.W[1][2] = 0.5
			if err := ApplySupport(o, p, g, oracleRows); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ApplySupport allocates %v times a call", algo, allocs)
		}
	}
}
