package model

import (
	"math/rand"
	"testing"
)

func benchSetup(b *testing.B, mdl Model, batch, m int) (*Params, Batch) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	p := NewParams(mdl.ParamRows(), m)
	mdl.Init(p, r)
	for i := range p.W {
		for j := range p.W[i] {
			p.W[i][j] += r.NormFloat64() * 0.1
		}
	}
	bt := randomBatch(r, mdl, batch, m)
	return p, bt
}

func benchModel(b *testing.B, mdl Model) {
	const batch, m = 256, 4096
	p, bt := benchSetup(b, mdl, batch, m)
	grad := NewParams(mdl.ParamRows(), m)
	var stats []float64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats = mdl.PartialStats(p, bt, stats[:0])
		grad.Zero()
		mdl.Gradient(p, bt, stats, grad)
	}
}

func BenchmarkLRKernels(b *testing.B)  { benchModel(b, LR{}) }
func BenchmarkSVMKernels(b *testing.B) { benchModel(b, SVM{}) }
func BenchmarkMLRKernels(b *testing.B) { benchModel(b, mustMLR(8)) }
func BenchmarkFMKernels(b *testing.B)  { benchModel(b, mustFM(8)) }
