package cluster_test

// Fuzzers for the frame decoders every transport runs. They live in the
// external test package so their seeds can be real core messages (core
// imports cluster).

import (
	"errors"
	"testing"

	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/opt"
	"columnsgd/internal/wire"
)

// addMangled seeds f with frame, its first half (chaos truncation) and
// copies with one byte flipped at a few positions (chaos corruption).
func addMangled(f *testing.F, frame []byte) {
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	for _, pos := range []int{0, len(frame) / 2, len(frame) - 1} {
		mangled := append([]byte(nil), frame...)
		mangled[pos] ^= 0xA5
		f.Add(mangled)
	}
}

// FuzzDecodeRequestFrame feeds the worker-side request decoder the bytes
// a chaos transport can produce — truncated, bit-flipped, or arbitrary
// frames. It must never panic, every failure must wrap ErrDecode, and a
// request that decodes must encode again.
func FuzzDecodeRequestFrame(f *testing.F) {
	for _, req := range []struct {
		method string
		args   interface{}
	}{
		{"computeStats", &core.StatsArgs{Iter: 3, BatchSize: 64, Epoch: true, EpochSeed: 9}},
		{"update", &core.UpdateArgs{Iter: 3, BatchSize: 4, Stats: []float64{0.5, 0, -1.25, 3}}},
		// The gob fallback that carries control-plane messages.
		{"init", &core.InitArgs{Worker: 1, Partitions: []int{1}, Widths: []int{8}, ModelName: "lr",
			Opt: opt.Config{Algo: "sgd", LR: 0.5}, Seed: 7}},
	} {
		frame, err := cluster.EncodeRequestFrame(wire.Default, req.method, req.args)
		if err != nil {
			f.Fatal(err)
		}
		addMangled(f, frame)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		method, args, err := cluster.DecodeRequestFrame(wire.Default, data)
		if err != nil {
			if !errors.Is(err, cluster.ErrDecode) {
				t.Fatalf("untyped decode error %v for % x", err, data)
			}
			return
		}
		if _, err := cluster.EncodeRequestFrame(wire.Default, method, args); err != nil {
			t.Fatalf("decoded request (%q, %T) does not re-encode: %v", method, args, err)
		}
	})
}

// FuzzDecodeResponseFrame does the same for the master-side reply
// decoder — the path a corrupted worker response travels.
func FuzzDecodeResponseFrame(f *testing.F) {
	for _, resp := range []struct {
		value  interface{}
		errStr string
	}{
		{&core.StatsReply{Stats: []float64{0, 1.5, 0, 0, -2}, NNZ: 17}, ""},
		{&core.PingReply{Worker: 2}, ""}, // the gob fallback
		{nil, "worker exploded"},
	} {
		frame, err := cluster.EncodeResponseFrame(wire.Default, resp.value, resp.errStr)
		if err != nil {
			f.Fatal(err)
		}
		addMangled(f, frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := cluster.DecodeResponseFrame(wire.Default, data); err != nil && !errors.Is(err, cluster.ErrDecode) {
			t.Fatalf("untyped decode error %v for % x", err, data)
		}
	})
}
