package cluster

import (
	"testing"

	"columnsgd/internal/wire"
)

// maxAllocsEncodePooled is the checked-in allocation ceiling for one
// pooled encode of a 1024-value statistics response. The frame is
// appended into a pooled buffer that keeps its grown capacity, so the
// steady state allocates nothing; a regression — most plausibly losing
// buffer reuse and re-growing a fresh ~8 KiB buffer every call — fails
// the test.
const maxAllocsEncodePooled = 0

func TestEncodePooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	resp := &pingMsg{Vals: vals, N: 12345}

	// Warm up: grow the pooled buffer to steady-state size.
	for i := 0; i < 8; i++ {
		buf, err := encodeResponseFrame(wire.Default, resp, "")
		if err != nil {
			t.Fatal(err)
		}
		putFrameBuf(buf)
	}

	got := testing.AllocsPerRun(200, func() {
		buf, err := encodeResponseFrame(wire.Default, resp, "")
		if err != nil {
			t.Fatal(err)
		}
		putFrameBuf(buf)
	})
	if got > maxAllocsEncodePooled {
		t.Errorf("encodeResponseFrame allocates %.1f/run, ceiling %d", got, maxAllocsEncodePooled)
	}
	t.Logf("encodeResponseFrame: %.1f allocs/run (ceiling %d)", got, maxAllocsEncodePooled)
}

// TestEncodePooledRoundTrip: pooled bytes must decode to the encoded
// value, and handing the buffer back — and reusing it for another frame —
// must not corrupt a decode that already copied the data out.
func TestEncodePooledRoundTrip(t *testing.T) {
	want := &pingMsg{Vals: []float64{1, 2, 3.5}, N: 7}
	buf, err := encodeResponseFrame(wire.Default, want, "")
	if err != nil {
		t.Fatal(err)
	}
	value, errStr, err := decodeResponseFrame(buf.b)
	if err != nil || errStr != "" {
		t.Fatalf("decode: %v %q", err, errStr)
	}
	putFrameBuf(buf)
	other, err := encodeResponseFrame(wire.Default, &pingMsg{Vals: []float64{9, 9, 9}, N: 99}, "")
	if err != nil {
		t.Fatal(err)
	}
	putFrameBuf(other)
	got, ok := value.(*pingMsg)
	if !ok {
		t.Fatalf("decoded %T, want *pingMsg", value)
	}
	if got.N != want.N || len(got.Vals) != len(want.Vals) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Vals {
		if got.Vals[i] != want.Vals[i] {
			t.Fatalf("vals[%d] = %v, want %v", i, got.Vals[i], want.Vals[i])
		}
	}
}
