package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"columnsgd/internal/wire"
)

// FuzzReadFrame hardens the TCP framing against arbitrary bytes: the
// reader must never panic or over-allocate, well-formed frames must
// round-trip, and every failure must carry the framing error taxonomy
// (ErrBadFrame, or a bare EOF-class error for a short header) so callers
// can branch on the failure class.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = writeFrame(&buf, []byte("seed payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'}) // truncated payload
	// Chaos-shaped seeds: a real request frame truncated mid-payload and
	// with a corrupted length prefix.
	req, _ := EncodeRequestFrame(wire.Default, "echo", &echoArgs{Text: "fuzz", N: 7})
	var framed bytes.Buffer
	_ = writeFrame(&framed, req)
	whole := framed.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	mangled := append([]byte(nil), whole...)
	mangled[0] ^= 0x40 // length prefix now claims a giant frame
	f.Add(mangled)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped framing error %v for % x", err, data)
			}
			return
		}
		// A successfully read frame re-encodes to a prefix of the input.
		var out bytes.Buffer
		if err := writeFrame(&out, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("decoded frame does not round trip")
		}
	})
}
