package wire_test

// Golden wire-format tests: every statistics message family is encoded
// against canonical fixtures under testdata/ and compared byte for byte.
// A diff here means the wire format changed — that requires a codec
// version bump and negotiation support, never a silent re-golden. Run
//
//	go test ./internal/wire -run TestGolden -update
//
// only when such a change is intentional.

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/rowsgd"
	"columnsgd/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden wire-format fixtures")

// goldenStats is a deterministic statistics vector with the mixed shape
// real batches have: mostly zeros, full-mantissa nonzeros.
func goldenStats(n, stride int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i += stride {
		out[i] = math.Sqrt(float64(i + 2))
	}
	return out
}

type goldenCase struct {
	name  string
	codec wire.Codec
	frame func(wire.Codec) ([]byte, error)
}

func requestCase(name string, codec wire.Codec, method string, args interface{}) goldenCase {
	return goldenCase{name, codec, func(c wire.Codec) ([]byte, error) {
		return cluster.EncodeRequestFrame(c, method, args)
	}}
}

func responseCase(name string, codec wire.Codec, value interface{}) goldenCase {
	return goldenCase{name, codec, func(c wire.Codec) ([]byte, error) {
		return cluster.EncodeResponseFrame(c, value, "")
	}}
}

func goldenCases() []goldenCase {
	wireF64 := wire.Default
	wireF32 := wire.Codec{Enc: wire.F32}
	wireF16 := wire.Codec{Enc: wire.F16}
	return []goldenCase{
		requestCase("stats-args", wireF64, "computeStats",
			&core.StatsArgs{Iter: -3, BatchSize: 256, Epoch: true, EpochSeed: 7}),
		requestCase("update-args", wireF64, "update",
			&core.UpdateArgs{Iter: 9, BatchSize: 64, Stats: goldenStats(32, 4)}),
		requestCase("eval-loss-args", wireF64, "evalLoss",
			&core.EvalLossArgs{FromBlock: 1, ToBlock: 5, Stats: goldenStats(16, 1)}),
		requestCase("sparse-grad-args", wireF64, "sparseGrad",
			&rowsgd.SparseGradArgs{Iter: 4, BatchSize: 128, Dims: []int32{0, 3, 9, 1000},
				Values: []rowsgd.DenseVec{{1.5, -2.25, 0.75, 3.125}}}),
		responseCase("stats-reply-dense", wireF64,
			&core.StatsReply{Stats: goldenStats(16, 1), NNZ: 1234}),
		responseCase("stats-reply-sparse", wireF64,
			&core.StatsReply{Stats: goldenStats(96, 16), NNZ: 88}),
		responseCase("stats-reply-empty", wireF64,
			&core.StatsReply{Stats: []float64{}, NNZ: 0}),
		responseCase("stats-reply-sparse-f32", wireF32,
			&core.StatsReply{Stats: goldenStats(96, 16), NNZ: 88}),
		responseCase("stats-reply-sparse-f16", wireF16,
			&core.StatsReply{Stats: goldenStats(96, 16), NNZ: 88}),
		responseCase("update-reply", wireF64,
			&core.UpdateReply{Loss: 0.6931471805599453, NNZ: 4321}),
		responseCase("eval-loss-reply", wireF64,
			&core.EvalLossReply{LossSum: 17.25, Count: 240}),
		responseCase("eval-accuracy-reply", wireF64,
			&core.EvalAccuracyReply{Correct: 181, Count: 240}),
		responseCase("grad-reply", wireF64,
			&rowsgd.GradReply{Grad: []rowsgd.SparseBlock{
				{Indices: []int32{2, 5, 110}, Values: []float64{0.5, -1.25, 2.75}},
				{Indices: []int32{}, Values: []float64{}},
			}, LossSum: 3.5, Count: 64, NNZ: 999}),
		responseCase("need-reply", wireF64,
			&rowsgd.NeedReply{Dims: []int32{1, 2, 3, 70000}}),
		// Solver frame family (IDs 0x20–0x28). Vectors are pinned to f64
		// on the wire regardless of the negotiated encoding — the f32
		// codec cases below must produce the same value bytes as f64
		// fixtures would.
		requestCase("solver-update-args", wireF64, "solverUpdate",
			&core.SolverUpdateArgs{Version: 1, Iter: 12, BatchSize: 32, Epoch: true,
				EpochSeed: -5, LocalSteps: 4, Stats: goldenStats(24, 3)}),
		requestCase("solver-update-f32codec-args", wireF32, "solverUpdate",
			&core.SolverUpdateArgs{Version: 1, Iter: 12, BatchSize: 32, Epoch: true,
				EpochSeed: -5, LocalSteps: 4, Stats: goldenStats(24, 3)}),
		responseCase("solver-update-reply", wireF64,
			&core.SolverUpdateReply{Loss: 0.25, NNZ: 321, Delta: goldenStats(16, 2)}),
		requestCase("solver-grad-args", wireF64, "solverGrad",
			&core.SolverGradArgs{Version: 1, Round: 7, Pairs: 2, Memory: 8, Stats: goldenStats(20, 1)}),
		responseCase("solver-grad-reply", wireF64,
			&core.SolverGradReply{Pairs: 2, NNZ: 777, Gram: goldenStats(25, 1)}),
		requestCase("solver-dir-args", wireF64, "solverDirection",
			&core.SolverDirArgs{Version: 1, Coeffs: []float64{0.5, -0.25, 0, 0, -1}}),
		responseCase("solver-dir-reply", wireF64,
			&core.SolverDirReply{NNZ: 555, Margins: goldenStats(20, 4)}),
		requestCase("solver-line-args", wireF64, "solverLine",
			&core.SolverLineArgs{Version: 1, Alphas: []float64{0, 4, 2, 1},
				Base: goldenStats(12, 1), Dir: goldenStats(12, 2)}),
		responseCase("solver-line-reply", wireF64,
			&core.SolverLineReply{Count: 240, Losses: []float64{0.7, 0.31, 0.42, 0.55}}),
		requestCase("solver-apply-args", wireF64, "solverApply",
			&core.SolverApplyArgs{Version: 1, Alpha: 2.0}),
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".hex")
}

// TestGoldenFrames pins every fixture's encoded bytes and checks the
// frame decodes back and re-encodes to the identical bytes.
func TestGoldenFrames(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			frame, err := gc.frame(gc.codec)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			path := goldenPath(gc.name)
			if *update {
				if err := os.WriteFile(path, []byte(hex.EncodeToString(frame)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update after an intentional format change): %v", err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
			if err != nil {
				t.Fatalf("bad fixture: %v", err)
			}
			if !bytes.Equal(frame, want) {
				t.Fatalf("encoded frame diverges from golden fixture\n got: %x\nwant: %x", frame, want)
			}
			// Round trip: the golden bytes decode and re-encode
			// bit-identically (lossy encodings are idempotent once
			// quantized, so this holds for f32/f16 fixtures too).
			if strings.HasPrefix(gc.name, "stats-args") || strings.HasSuffix(gc.name, "-args") {
				method, args, err := cluster.DecodeRequestFrame(gc.codec, want)
				if err != nil {
					t.Fatalf("decode golden request: %v", err)
				}
				again, err := cluster.EncodeRequestFrame(gc.codec, method, args)
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				if !bytes.Equal(again, want) {
					t.Fatalf("request round trip not byte-identical\n got: %x\nwant: %x", again, want)
				}
			} else {
				value, errStr, err := cluster.DecodeResponseFrame(gc.codec, want)
				if err != nil {
					t.Fatalf("decode golden response: %v", err)
				}
				if errStr != "" {
					t.Fatalf("unexpected error string %q", errStr)
				}
				again, err := cluster.EncodeResponseFrame(gc.codec, value, "")
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				if !bytes.Equal(again, want) {
					t.Fatalf("response round trip not byte-identical\n got: %x\nwant: %x", again, want)
				}
			}
		})
	}
}

// TestGoldenWireIDsPinned freezes the message-ID assignments; reusing or
// moving an ID is a wire-format break even if each message still round
// trips.
func TestGoldenWireIDsPinned(t *testing.T) {
	ids := map[byte]wire.Message{
		0x01: new(core.StatsArgs),
		0x02: new(core.StatsReply),
		0x03: new(core.UpdateArgs),
		0x04: new(core.UpdateReply),
		0x05: new(core.EvalReply),
		0x06: new(core.EvalLossArgs),
		0x07: new(core.EvalLossReply),
		0x08: new(core.EvalAccuracyArgs),
		0x09: new(core.EvalAccuracyReply),
		0x10: new(rowsgd.GradReply),
		0x11: new(rowsgd.NeedReply),
		0x12: new(rowsgd.SparseGradArgs),
		0x20: new(core.SolverUpdateArgs),
		0x21: new(core.SolverUpdateReply),
		0x22: new(core.SolverGradArgs),
		0x23: new(core.SolverGradReply),
		0x24: new(core.SolverDirArgs),
		0x25: new(core.SolverDirReply),
		0x26: new(core.SolverLineArgs),
		0x27: new(core.SolverLineReply),
		0x28: new(core.SolverApplyArgs),
	}
	for id, msg := range ids {
		if got := msg.WireID(); got != id {
			t.Errorf("%T: wire ID 0x%02X, want pinned 0x%02X", msg, got, id)
		}
		reg, ok := wire.New(id)
		if !ok {
			t.Errorf("ID 0x%02X not registered", id)
			continue
		}
		if gotT, wantT := fmt.Sprintf("%T", reg), fmt.Sprintf("%T", msg); gotT != wantT {
			t.Errorf("ID 0x%02X registered as %s, want %s", id, gotT, wantT)
		}
	}
}
