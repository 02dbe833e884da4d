// Package wire is the compact, versioned binary codec for ColumnSGD's
// statistics message family. The paper's core claim (§III) is that each
// iteration exchanges only O(batch) statistics instead of O(model)
// gradients; this package makes those bytes tight on the real wire:
//
//   - sparse vectors carry delta-encoded varint indices instead of full
//     8-byte positions;
//   - every vector self-selects the cheaper of a dense or sparse layout
//     from its actual zero density;
//   - values may be quantized to float32 or IEEE 754 half precision
//     (float16) when the caller opts in — statistics tolerate reduced
//     precision, model parameters and reported losses never use it.
//
// The codec is deliberately self-describing at the value level (every
// vector records its encoding and layout), so a decoder never needs the
// sender's configuration. Framing and version negotiation live in
// internal/cluster; this package owns only payload bytes.
//
// Decoders in this package and in every registered Message must accept
// arbitrary adversarial input without panicking: all errors wrap either
// ErrTruncated or ErrCorrupt so transports can map them onto their
// ErrDecode/ErrBadFrame taxonomy.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Error taxonomy. ErrTruncated marks input that ends before the encoded
// structure does; ErrCorrupt marks input that is structurally invalid
// (bad tags, out-of-range lengths, non-monotone indices). Both are
// "bad frame"-class: the payload cannot be trusted and must be retried
// or rejected, never partially applied.
var (
	ErrTruncated = errors.New("wire: truncated payload")
	ErrCorrupt   = errors.New("wire: corrupt payload")
)

// Encoding selects the on-wire width of vector values.
type Encoding uint8

const (
	// F64 is lossless little-endian float64 (8 bytes/value).
	F64 Encoding = 0
	// F32 narrows values to float32 (4 bytes/value).
	F32 Encoding = 1
	// F16 narrows values to IEEE 754 binary16 (2 bytes/value).
	F16 Encoding = 2
)

// Width returns the encoded bytes per value.
func (e Encoding) Width() int {
	switch e {
	case F64:
		return 8
	case F32:
		return 4
	case F16:
		return 2
	}
	return 0
}

// Valid reports whether e is a defined encoding.
func (e Encoding) Valid() bool { return e <= F16 }

func (e Encoding) String() string {
	switch e {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case F16:
		return "f16"
	}
	return fmt.Sprintf("wire.Encoding(%d)", uint8(e))
}

// Codec is the value encoding a transport session sends its compact
// (version 1) frames with — the unit of negotiation between transports.
// The zero value is lossless Default.
type Codec struct {
	// Enc is the value encoding this side sends. Decoding is always
	// self-describing; Enc only shapes what this side sends.
	Enc Encoding
}

// Default is the codec transports use when the caller does not choose:
// lossless values.
var Default = Codec{Enc: F64}

// Lossless reports whether round-tripping float64 values through c is
// bit-exact. Golden-determinism guarantees hold only for lossless codecs.
func (c Codec) Lossless() bool { return c.Enc == F64 }

func (c Codec) String() string {
	switch c.Enc {
	case F64:
		return "wire"
	case F32:
		return "wire-f32"
	case F16:
		return "wire-f16"
	}
	return fmt.Sprintf("wire.Codec{%v}", c.Enc)
}

// ParseCodec maps a configuration string onto a Codec. The empty string
// selects Default, so flags and config fields can omit it.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "wire":
		return Default, nil
	case "wire-f32":
		return Codec{Enc: F32}, nil
	case "wire-f16":
		return Codec{Enc: F16}, nil
	}
	return Codec{}, fmt.Errorf("wire: unknown codec %q (want wire, wire-f32, or wire-f16)", s)
}

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zig-zag varint form.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// Uvarint consumes one unsigned varint, returning the remainder.
func Uvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		if n == 0 {
			return 0, nil, fmt.Errorf("%w: unterminated uvarint", ErrTruncated)
		}
		return 0, nil, fmt.Errorf("%w: uvarint overflows 64 bits", ErrCorrupt)
	}
	return v, data[n:], nil
}

// Varint consumes one zig-zag varint, returning the remainder.
func Varint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		if n == 0 {
			return 0, nil, fmt.Errorf("%w: unterminated varint", ErrTruncated)
		}
		return 0, nil, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
	}
	return v, data[n:], nil
}

// UvarintSize returns the encoded size of v without encoding it.
func UvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintSize returns the encoded size of v in zig-zag form.
func VarintSize(v int64) int {
	return UvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}
