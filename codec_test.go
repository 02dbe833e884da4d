package columnsgd_test

// Codec-axis correctness tests. Two contracts:
//
//  1. Golden determinism: the lossless codec is a pure byte-level
//     format — every engine's final model reproduces pinned loss and
//     weight bits, at every compute parallelism.
//  2. Quantization accuracy: the lossy f32/f16 statistics encodings stay
//     inside a small tolerance of the lossless final loss for LR, SVM,
//     and MLR (measured deltas are recorded in EXPERIMENTS.md).

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	columnsgd "columnsgd"
	"columnsgd/internal/chaos/diff"
)

// codecGoldens pins each engine's final loss bits and weightsHash at
// diff.Workload{Seed: 77}. They were recorded while the repository still
// carried a second, gob-based codec, and both codecs produced exactly
// these bits — so they hold the lossless codec to the math of a format
// that shares none of its code.
var codecGoldens = map[string]struct{ loss, weights uint64 }{
	"columnsgd": {0x3fcd567bf74d03a5, 0x673546e82a0ffdf6},
	"mllib":     {0x3fcbef2c64ab72c3, 0x9f76b68d9f93e240},
	"mllib*":    {0x3fc1809b72bcb9ad, 0xfb94b490eb7a6298},
	"petuum":    {0x3fcbef2c64ab72c3, 0x9f76b68d9f93e240},
	"mxnet":     {0x3fcbef2c64ab72c3, 0x9f76b68d9f93e240},
}

// weightsHash is FNV-64a over the little-endian bits of every weight,
// row by row.
func weightsHash(w [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range w {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestCodecGoldenDeterminism runs all five engines under the lossless
// wire codec against the pinned goldens, and ColumnSGD additionally at
// compute parallelism 1, 2 and 4: encoding must not introduce any order
// sensitivity the workers' deterministic pools could amplify. Any
// divergence means the codec changed the math, not just the bytes.
func TestCodecGoldenDeterminism(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bits; the Go spec lets GOARCH=%s fuse multiply-adds", runtime.GOARCH)
	}
	for _, eng := range diff.Engines() {
		t.Run(eng, func(t *testing.T) {
			want := codecGoldens[eng]
			check := func(t *testing.T, w diff.Workload) {
				res, err := diff.Run(eng, w, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := math.Float64bits(res.Loss); got != want.loss {
					t.Errorf("loss bits %#016x, golden %#016x", got, want.loss)
				}
				if got := weightsHash(res.Weights); got != want.weights {
					t.Errorf("weights hash %#016x, golden %#016x", got, want.weights)
				}
			}
			check(t, diff.Workload{Seed: 77, Codec: "wire"})
			if eng != "columnsgd" {
				return
			}
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
					check(t, diff.Workload{Seed: 77, Codec: "wire", Parallelism: p})
				})
			}
		})
	}
}

// TestConfigRejectsGobCodec: "gob" named codec version 0, which no
// longer exists, so asking for it is a configuration error.
func TestConfigRejectsGobCodec(t *testing.T) {
	ds, err := columnsgd.Generate(columnsgd.Synthetic{N: 60, Features: 10, NNZPerRow: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = columnsgd.Train(ds, columnsgd.Config{LearningRate: 0.5, Iterations: 1, Codec: "gob"})
	if err == nil || !strings.Contains(err.Error(), `unknown codec "gob"`) {
		t.Fatalf("Train with Codec \"gob\" = %v, want the unknown-codec error", err)
	}
}

// TestQuantizationAccuracy trains LR, SVM, and MLR under the lossy f32
// and f16 statistics encodings and checks the final full-data loss lands
// within tolerance of the lossless run. f32 keeps 24 significand bits —
// indistinguishable at these scales; f16's 11 bits cost a visible but
// bounded drift. The measured deltas live in EXPERIMENTS.md.
func TestQuantizationAccuracy(t *testing.T) {
	tolerances := []struct {
		codec string
		tol   float64
	}{
		{"wire-f32", 1e-6},
		{"wire-f16", 1e-3},
	}
	for _, m := range []string{"lr", "svm", "mlr"} {
		t.Run(m, func(t *testing.T) {
			w := diff.Workload{Model: m, Seed: 55, Iters: 40}
			exact, err := diff.RunColumnSGD(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(exact.Loss) || math.IsInf(exact.Loss, 0) {
				t.Fatalf("lossless run produced loss %v", exact.Loss)
			}
			for _, tc := range tolerances {
				lw := w
				lw.Codec = tc.codec
				lossy, err := diff.RunColumnSGD(lw, nil)
				if err != nil {
					t.Fatal(err)
				}
				delta := math.Abs(lossy.Loss - exact.Loss)
				t.Logf("%s %s: loss %.9f vs lossless %.9f (|Δ| = %.3g)",
					m, tc.codec, lossy.Loss, exact.Loss, delta)
				if delta > tc.tol {
					t.Errorf("%s final loss %v drifts %.3g from lossless %v (tolerance %.3g)",
						tc.codec, lossy.Loss, delta, exact.Loss, tc.tol)
				}
			}
		})
	}
}
