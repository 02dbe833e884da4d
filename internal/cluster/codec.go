package cluster

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync"

	"columnsgd/internal/wire"
)

// Codec version 1 frames. A frame is one length-prefixed payload
// (tcp.go) or one in-process buffer (channel.go):
//
//	request:  [0xC1][uvarint len(method)][method][payload]
//	response: [0xC2][uvarint len(err)][err][payload]
//
// payload:  [wireID][compact body]   for registered wire.Message types
//
//	[0x00][gob bytes]        fallback: any gob-registered type
//	[0xFF]                   nil value (or error responses)
//
// The fallback keeps the control plane (init, load, params, ping) on
// gob — those messages are rare and structural — while the per-iteration
// statistics family rides the compact path.
const (
	wireRequestMarker  = 0xC1
	wireResponseMarker = 0xC2
	payloadGob         = 0x00
	payloadNil         = 0xFF
)

// maxMethodLen bounds decoded method names; real names are ~25 bytes.
const maxMethodLen = 1 << 10

// encBuf is a pooled, append-backed encode buffer. It implements
// io.Writer so the gob fallback encoder can share it with the wire
// append path.
type encBuf struct{ b []byte }

func (e *encBuf) Write(p []byte) (int, error) {
	e.b = append(e.b, p...)
	return len(p), nil
}

var frameBufs = sync.Pool{New: func() interface{} { return &encBuf{b: make([]byte, 0, 1024)} }}

func getFrameBuf() *encBuf {
	e := frameBufs.Get().(*encBuf)
	e.b = e.b[:0]
	return e
}

func putFrameBuf(e *encBuf) { frameBufs.Put(e) }

// encodeRequestFrame encodes one request under codec c into a pooled
// buffer. The caller must hand the buffer to putFrameBuf exactly once
// after its bytes are consumed.
func encodeRequestFrame(c wire.Codec, method string, args interface{}) (*encBuf, error) {
	if len(method) > maxMethodLen {
		return nil, fmt.Errorf("cluster: encode: method name of %d bytes exceeds limit", len(method))
	}
	e := getFrameBuf()
	e.b = append(e.b, wireRequestMarker)
	e.b = binary.AppendUvarint(e.b, uint64(len(method)))
	e.b = append(e.b, method...)
	var err error
	switch m := args.(type) {
	case wire.Message:
		e.b = append(e.b, m.WireID())
		e.b = m.AppendWire(e.b, c.Enc)
	case nil:
		e.b = append(e.b, payloadNil)
	default:
		e.b = append(e.b, payloadGob)
		err = gob.NewEncoder(e).Encode(&Envelope{Method: method, Args: args})
	}
	if err != nil {
		putFrameBuf(e)
		return nil, fmt.Errorf("cluster: encode: %w", err)
	}
	return e, nil
}

// decodeRequestFrame is the server-side inverse of encodeRequestFrame.
// Decode failures surface as ErrDecode, never a panic.
func decodeRequestFrame(data []byte) (string, interface{}, error) {
	if len(data) < 1 || data[0] != wireRequestMarker {
		return "", nil, fmt.Errorf("%w: missing request marker", ErrDecode)
	}
	mlen, rest, err := wire.Uvarint(data[1:])
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if mlen > maxMethodLen || mlen > uint64(len(rest)) {
		return "", nil, fmt.Errorf("%w: method name length %d", ErrDecode, mlen)
	}
	method := string(rest[:mlen])
	args, err := decodePayload(rest[mlen:], func(blob []byte) (interface{}, error) {
		var env Envelope
		if err := decode(blob, &env); err != nil {
			return nil, err
		}
		return env.Args, nil
	})
	if err != nil {
		return "", nil, err
	}
	return method, args, nil
}

// gobValue boxes a fallback response value so any gob-registered type
// can ride inside a wire frame.
type gobValue struct{ V interface{} }

func init() { gob.Register(&gobValue{}) }

// encodeResponseFrame encodes one response under codec c into a pooled
// buffer.
func encodeResponseFrame(c wire.Codec, value interface{}, errStr string) (*encBuf, error) {
	e := getFrameBuf()
	e.b = append(e.b, wireResponseMarker)
	e.b = binary.AppendUvarint(e.b, uint64(len(errStr)))
	e.b = append(e.b, errStr...)
	if errStr != "" {
		// Error responses carry no value; the handler result (if any) is
		// meaningless alongside an error string.
		e.b = append(e.b, payloadNil)
		return e, nil
	}
	var err error
	switch m := value.(type) {
	case wire.Message:
		e.b = append(e.b, m.WireID())
		e.b = m.AppendWire(e.b, c.Enc)
	case nil:
		e.b = append(e.b, payloadNil)
	default:
		e.b = append(e.b, payloadGob)
		err = gob.NewEncoder(e).Encode(&gobValue{V: value})
	}
	if err != nil {
		putFrameBuf(e)
		return nil, fmt.Errorf("cluster: encode: %w", err)
	}
	return e, nil
}

// decodeResponseFrame is the client-side inverse of encodeResponseFrame.
func decodeResponseFrame(data []byte) (interface{}, string, error) {
	if len(data) < 1 || data[0] != wireResponseMarker {
		return nil, "", fmt.Errorf("%w: missing response marker", ErrDecode)
	}
	elen, rest, err := wire.Uvarint(data[1:])
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if elen > uint64(len(rest)) {
		return nil, "", fmt.Errorf("%w: error string length %d", ErrDecode, elen)
	}
	errStr := string(rest[:elen])
	value, err := decodePayload(rest[elen:], func(blob []byte) (interface{}, error) {
		var box gobValue
		if err := decode(blob, &box); err != nil {
			return nil, err
		}
		return box.V, nil
	})
	if err != nil {
		return nil, "", err
	}
	return value, errStr, nil
}

// decodeResponseFrameInto is decodeResponseFrame with a zero-copy fast
// path: a successful response whose payload tag matches the caller's
// reply WireID is decoded directly into reply, reusing its slice
// capacity via the DecodeVecInto contract — a master that keeps
// per-worker reply scratch pays no per-call statistics allocation.
// stored reports that reply was populated in place (value is nil then).
// On a decode error the reply may be partially mutated; callers already
// treat a Call error as total failure and must not read the reply after
// one. Everything else — fallback payloads, error responses, mismatched
// IDs — takes the generic allocate-and-assign path and stored is false.
func decodeResponseFrameInto(data []byte, reply interface{}) (value interface{}, errStr string, stored bool, err error) {
	if m, ok := reply.(wire.Message); ok && len(data) >= 1 && data[0] == wireResponseMarker {
		elen, rest, uerr := wire.Uvarint(data[1:])
		if uerr == nil && elen == 0 && len(rest) >= 1 && rest[0] == m.WireID() {
			if derr := safeDecodeWire(m, rest[1:]); derr != nil {
				return nil, "", false, derr
			}
			return nil, "", true, nil
		}
		// Anything else — error responses, other tags, header trouble —
		// re-parses below; response frames are small.
	}
	value, errStr, err = decodeResponseFrame(data)
	return value, errStr, false, err
}

// decodePayload parses the tagged payload tail shared by requests and
// responses. gobFallback interprets a payloadGob blob.
func decodePayload(data []byte, gobFallback func([]byte) (interface{}, error)) (interface{}, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: missing payload tag", ErrDecode)
	}
	tag, body := data[0], data[1:]
	switch tag {
	case payloadNil:
		return nil, nil
	case payloadGob:
		return gobFallback(body)
	default:
		msg, ok := wire.New(tag)
		if !ok {
			return nil, fmt.Errorf("%w: unknown wire message ID 0x%02X", ErrDecode, tag)
		}
		if err := safeDecodeWire(msg, body); err != nil {
			return nil, err
		}
		return msg, nil
	}
}

// safeDecodeWire guards a Message decode the way decode guards gob:
// mangled frames surface as ErrDecode, never a panic.
func safeDecodeWire(m wire.Message, data []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: wire decoder panic: %v", ErrDecode, r)
		}
	}()
	if derr := m.DecodeWire(data); derr != nil {
		return fmt.Errorf("%w: %v", ErrDecode, derr)
	}
	return nil
}

// CodecCarrier is implemented by clients that expose their session
// codec — the seam decorators (the chaos injector) use to manipulate
// wire bytes with the same format the transport uses.
type CodecCarrier interface {
	WireCodec() wire.Codec
}

// EncodeRequestFrame frames a request exactly as a transport with codec
// c does, into a fresh slice the caller may mutate.
func EncodeRequestFrame(c wire.Codec, method string, args interface{}) ([]byte, error) {
	e, err := encodeRequestFrame(c, method, args)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), e.b...)
	putFrameBuf(e)
	return out, nil
}

// DecodeRequestFrame is the inverse seam; any failure wraps ErrDecode.
// Frames are self-describing, so c does not shape decoding.
func DecodeRequestFrame(c wire.Codec, data []byte) (string, interface{}, error) {
	return decodeRequestFrame(data)
}

// EncodeResponseFrame frames a response exactly as a transport with
// codec c does, into a fresh slice.
func EncodeResponseFrame(c wire.Codec, value interface{}, errStr string) ([]byte, error) {
	e, err := encodeResponseFrame(c, value, errStr)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), e.b...)
	putFrameBuf(e)
	return out, nil
}

// DecodeResponseFrame is the inverse seam; any failure wraps ErrDecode.
// Frames are self-describing, so c does not shape decoding.
func DecodeResponseFrame(c wire.Codec, data []byte) (interface{}, string, error) {
	return decodeResponseFrame(data)
}
