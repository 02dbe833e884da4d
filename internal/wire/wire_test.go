package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseCodec(t *testing.T) {
	cases := []struct {
		in   string
		want Codec
	}{
		{"", Default},
		{"wire", Codec{Enc: F64}},
		{"wire-f32", Codec{Enc: F32}},
		{"wire-f16", Codec{Enc: F16}},
	}
	for _, c := range cases {
		got, err := ParseCodec(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("Codec %v String() = %q, want %q", got, got.String(), c.in)
		}
	}
	// "protobuf" was never a codec; "gob" was version 0 and is gone.
	for _, name := range []string{"protobuf", "gob"} {
		if _, err := ParseCodec(name); err == nil || !strings.Contains(err.Error(), "unknown codec") {
			t.Errorf("ParseCodec(%q) = %v, want the unknown-codec error", name, err)
		}
	}
	if (Codec{}) != Default || !Default.Lossless() {
		t.Error("the zero Codec must be lossless Default")
	}
	if (Codec{Enc: F16}).Lossless() {
		t.Error("wire-f16 must not claim losslessness")
	}
}

func TestVarintSizesMatchEncoding(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 14, 1<<14 - 1, 1 << 35, math.MaxUint64} {
		if got, want := UvarintSize(v), len(AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintSize(%d) = %d, want %d", v, got, want)
		}
	}
	for _, v := range []int64{0, -1, 1, 63, -64, 1 << 30, math.MinInt64, math.MaxInt64} {
		if got, want := VarintSize(v), len(AppendVarint(nil, v)); got != want {
			t.Errorf("VarintSize(%d) = %d, want %d", v, got, want)
		}
		dec, rest, err := Varint(AppendVarint(nil, v))
		if err != nil || dec != v || len(rest) != 0 {
			t.Errorf("Varint round trip of %d failed: %d, %v", v, dec, err)
		}
	}
}

func TestF16RoundTrip(t *testing.T) {
	// Every exactly-representable half value must round-trip bit-exactly.
	for u := 0; u <= 0xFFFF; u++ {
		h := uint16(u)
		f := F16ToFloat(h)
		back := F16FromFloat(f)
		if math.IsNaN(f) {
			if back>>10&0x1f != 0x1f || back&0x3ff == 0 {
				t.Fatalf("NaN half %#04x did not stay NaN: %#04x", h, back)
			}
			continue
		}
		if back != h {
			t.Fatalf("half %#04x → %g → %#04x", h, f, back)
		}
	}
}

func TestF16Rounding(t *testing.T) {
	cases := []struct {
		in   float64
		want float64
	}{
		{0, 0},
		{1, 1},
		{-2, -2},
		{65504, 65504},        // max finite half
		{65536, math.Inf(1)},  // overflow saturates
		{-1e10, math.Inf(-1)}, // overflow saturates
		{5.960464477539063e-08, 5.960464477539063e-08}, // smallest subnormal
		{1e-10, 0},                  // underflow flushes to zero
		{1.0 / 3.0, 0.333251953125}, // nearest half to 1/3
	}
	for _, c := range cases {
		if got := F16ToFloat(F16FromFloat(c.in)); got != c.want {
			t.Errorf("f16(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(F16ToFloat(F16FromFloat(math.NaN()))) {
		t.Error("NaN did not survive f16")
	}
}

func TestVecRoundTrip(t *testing.T) {
	vectors := [][]float64{
		nil,
		{},
		{0},
		{1.5},
		{0, 0, 0, 0},
		{1, 2, 3, 4, 5},
		{0, 0, 7.25, 0, 0, 0, 0, 0, -3.5, 0, 0, 0},
		make([]float64, 1000), // all zero → sparse
	}
	dense := make([]float64, 300)
	for i := range dense {
		dense[i] = float64(i) * 0.25
	}
	vectors = append(vectors, dense)
	for _, enc := range []Encoding{F64, F32, F16} {
		for _, v := range vectors {
			frame := AppendVec(nil, v, enc)
			if got, want := len(frame), VecSize(v, enc); got != want {
				t.Fatalf("enc %v: VecSize = %d, actual frame = %d for %v", enc, want, got, v)
			}
			out, rest, err := DecodeVec(frame)
			if err != nil || len(rest) != 0 {
				t.Fatalf("enc %v: decode failed: %v (rest %d)", enc, err, len(rest))
			}
			if len(out) != len(v) {
				t.Fatalf("enc %v: length %d, want %d", enc, len(out), len(v))
			}
			if enc == F64 && len(v) > 0 && !reflect.DeepEqual(out, v) {
				t.Fatalf("f64 round trip not exact: %v != %v", out, v)
			}
			// Lossy encodings must be idempotent: re-encoding the decoded
			// vector reproduces the same bytes.
			if again := AppendVec(nil, out, enc); string(again) != string(frame) {
				t.Fatalf("enc %v: re-encode differs for %v", enc, v)
			}
		}
	}
}

func TestVecAutoSelectsLayout(t *testing.T) {
	sparse := make([]float64, 4096)
	sparse[17] = 1
	sparse[18] = 2
	sparse[4000] = 3
	sFrame := AppendVec(nil, sparse, F64)
	if sFrame[1] != layoutSparse {
		t.Fatalf("3/4096 nonzero chose layout %d, want sparse", sFrame[1])
	}
	if len(sFrame) > 50 {
		t.Fatalf("sparse frame is %d bytes, want tens", len(sFrame))
	}
	denseV := make([]float64, 64)
	for i := range denseV {
		denseV[i] = 1 + float64(i)
	}
	dFrame := AppendVec(nil, denseV, F64)
	if dFrame[1] != layoutDense {
		t.Fatalf("fully dense vector chose layout %d, want dense", dFrame[1])
	}
	if got, want := len(dFrame), DenseVecSize(64, F64); got != want {
		t.Fatalf("DenseVecSize = %d, actual = %d", want, got)
	}
}

func TestDecodeVecRejectsBadInput(t *testing.T) {
	good := AppendVec(nil, []float64{0, 1, 0, 2}, F64)
	cases := map[string][]byte{
		"empty":           {},
		"header only":     good[:1],
		"bad encoding":    {9, layoutDense, 0},
		"bad layout":      {byte(F64), 7, 0},
		"truncated body":  good[:len(good)-3],
		"huge length":     append([]byte{byte(F64), layoutDense}, AppendUvarint(nil, 1<<40)...),
		"nnz over length": append(append([]byte{byte(F64), layoutSparse}, AppendUvarint(nil, 2)...), AppendUvarint(nil, 3)...),
	}
	for name, data := range cases {
		if _, _, err := DecodeVec(data); err == nil {
			t.Errorf("%s: decode accepted bad input", name)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v is not typed", name, err)
		}
	}
	// Duplicate sparse position (zero delta after the first).
	dup := []byte{byte(F64), layoutSparse}
	dup = AppendUvarint(dup, 8) // n
	dup = AppendUvarint(dup, 2) // nnz
	dup = AppendUvarint(dup, 3) // pos 3
	dup = AppendUvarint(dup, 0) // duplicate
	dup = append(dup, make([]byte, 16)...)
	if _, _, err := DecodeVec(dup); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate position: got %v, want ErrCorrupt", err)
	}
}

func TestSparseRoundTrip(t *testing.T) {
	cases := []struct {
		idx  []int32
		vals []float64
	}{
		{nil, nil},
		{[]int32{0}, []float64{1.5}},
		{[]int32{3, 9, 10, 500000}, []float64{1, -2, 3, 4}},
		{[]int32{9, 3, 7}, []float64{1, 2, 3}}, // unsorted → absolute mode
	}
	for _, enc := range []Encoding{F64, F32, F16} {
		for _, c := range cases {
			frame := AppendSparse(nil, c.idx, c.vals, enc)
			if got, want := len(frame), SparseSize(c.idx, enc); got != want {
				t.Fatalf("SparseSize = %d, actual = %d for %v", want, got, c.idx)
			}
			idx, vals, rest, err := DecodeSparse(frame)
			if err != nil || len(rest) != 0 {
				t.Fatalf("decode: %v", err)
			}
			if len(idx) != len(c.idx) || len(vals) != len(c.vals) {
				t.Fatalf("lengths: %d/%d, want %d/%d", len(idx), len(vals), len(c.idx), len(c.vals))
			}
			for i := range idx {
				if idx[i] != c.idx[i] {
					t.Fatalf("enc %v: index %d = %d, want %d", enc, i, idx[i], c.idx[i])
				}
			}
			if enc == F64 {
				for i := range vals {
					if vals[i] != c.vals[i] {
						t.Fatalf("f64 value %d = %g, want %g", i, vals[i], c.vals[i])
					}
				}
			}
		}
	}
}

func TestDimsRoundTrip(t *testing.T) {
	for _, idx := range [][]int32{nil, {0}, {1, 2, 3, 1000, 2000000}, {5, 2, 9}} {
		frame := AppendDims(nil, idx)
		if got, want := len(frame), DimsSize(idx); got != want {
			t.Fatalf("DimsSize = %d, actual = %d", want, got)
		}
		out, rest, err := DecodeDims(frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v", err)
		}
		if len(out) != len(idx) {
			t.Fatalf("length %d, want %d", len(out), len(idx))
		}
		for i := range out {
			if out[i] != idx[i] {
				t.Fatalf("dim %d = %d, want %d", i, out[i], idx[i])
			}
		}
	}
}

func TestRegistryGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("reserved 0x00", func() { Register(0x00, nil) })
	mustPanic("reserved 0xFF", func() { Register(0xFF, nil) })
	if _, ok := New(0xFE); ok {
		t.Error("New returned a message for an unregistered ID")
	}
}

func TestSparseBeatsGobStyleForSparseVectors(t *testing.T) {
	// The headline property: a B=1024 statistics vector with 1% density
	// costs ~nnz·(1+8) bytes, not n·8.
	v := make([]float64, 1024)
	for i := 0; i < 10; i++ {
		v[i*100] = float64(i) + 0.5
	}
	frame := AppendVec(nil, v, F64)
	if len(frame) > 120 {
		t.Fatalf("1%%-dense 1024-vector encoded to %d bytes, want ~100", len(frame))
	}
}
