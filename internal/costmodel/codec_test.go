package costmodel_test

// The satellite contract of the compact-codec work: the modeled frame
// sizes must equal the sizes of frames the real transport encoder emits,
// byte for byte, across the layouts the auto-selecting vector encoding
// can produce — dense, sparse, empty, and single-element.

import (
	"testing"

	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/costmodel"
	"columnsgd/internal/wire"
)

func statsCases() map[string][]float64 {
	dense := make([]float64, 64)
	for i := range dense {
		dense[i] = float64(i) + 0.25
	}
	sparse := make([]float64, 256)
	for i := 0; i < len(sparse); i += 17 {
		sparse[i] = float64(i) * 0.5
	}
	single := make([]float64, 128)
	single[77] = 3.75
	return map[string][]float64{
		"dense":          dense,
		"sparse":         sparse,
		"empty":          {},
		"all-zero":       make([]float64, 96),
		"single-element": single,
	}
}

// TestStatsFrameBytesMatchesEncoder pins StatsFrameBytes to the real
// encoder output for every layout × value encoding.
func TestStatsFrameBytesMatchesEncoder(t *testing.T) {
	for name, stats := range statsCases() {
		for _, enc := range []wire.Encoding{wire.F64, wire.F32, wire.F16} {
			codec := wire.Codec{Enc: enc}
			reply := &core.StatsReply{Stats: stats, NNZ: int64(len(stats)) * 3}
			frame, err := cluster.EncodeResponseFrame(codec, reply, "")
			if err != nil {
				t.Fatalf("%s/%v: encode: %v", name, enc, err)
			}
			modeled := costmodel.StatsFrameBytes(stats, reply.NNZ, enc)
			if modeled != int64(len(frame)) {
				t.Errorf("%s/%v: modeled %d bytes, encoder produced %d", name, enc, modeled, len(frame))
			}
		}
	}
}

// TestDenseStatsFrameBytesIsUpperBound checks the shape-only helper: it
// matches the encoder exactly when the vector really is dense, and upper
// bounds every other layout of the same length.
func TestDenseStatsFrameBytesIsUpperBound(t *testing.T) {
	for name, stats := range statsCases() {
		reply := &core.StatsReply{Stats: stats, NNZ: 7}
		frame, err := cluster.EncodeResponseFrame(wire.Default, reply, "")
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		bound := costmodel.DenseStatsFrameBytes(len(stats), reply.NNZ, wire.F64)
		if int64(len(frame)) > bound {
			t.Errorf("%s: frame %d bytes exceeds dense bound %d", name, len(frame), bound)
		}
		if name == "dense" && int64(len(frame)) != bound {
			t.Errorf("dense: bound %d not exact (frame %d)", bound, len(frame))
		}
	}
}
