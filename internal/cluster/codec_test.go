package cluster

// Codec seam tests: the session hello over real TCP, wire-message round
// trips on both transports, and the typed-error guarantee for mangled
// frames — the contract the chaos injector's corrupt/truncate faults
// rely on.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"columnsgd/internal/wire"
)

// pingMsg is a registered wire message standing in for the statistics
// payloads (IDs 0x70+ stay clear of core's 0x01–0x0F and rowsgd's
// 0x10–0x1F ranges).
type pingMsg struct {
	Vals []float64
	N    int64
}

func (m *pingMsg) WireID() byte { return 0x70 }

func (m *pingMsg) AppendWire(buf []byte, enc wire.Encoding) []byte {
	buf = wire.AppendUvarint(buf, uint64(m.N))
	return wire.AppendVec(buf, m.Vals, enc)
}

func (m *pingMsg) DecodeWire(data []byte) error {
	v, data, err := wire.Uvarint(data)
	if err != nil {
		return err
	}
	m.N = int64(v)
	if m.Vals, data, err = wire.DecodeVec(data); err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: trailing bytes", wire.ErrCorrupt)
	}
	return nil
}

func init() { wire.Register(0x70, func() wire.Message { return new(pingMsg) }) }

// pingService echoes the message back doubled, so the test can verify
// the handler saw real decoded values.
func pingService(int) (*Service, error) {
	svc := NewService()
	svc.Register("ping", func(args interface{}) (interface{}, error) {
		a, ok := args.(*pingMsg)
		if !ok {
			return nil, fmt.Errorf("bad args type %T", args)
		}
		out := &pingMsg{N: a.N * 2, Vals: make([]float64, len(a.Vals))}
		for i, v := range a.Vals {
			out.Vals[i] = v * 2
		}
		return out, nil
	})
	return svc, nil
}

func pingCall(t *testing.T, c Client) {
	t.Helper()
	args := &pingMsg{N: 21, Vals: []float64{0, 1.5, 0, -2.25}}
	var reply pingMsg
	if err := c.Call("ping", args, &reply); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if reply.N != 42 || len(reply.Vals) != 4 || reply.Vals[3] != -4.5 {
		t.Fatalf("ping reply %+v", reply)
	}
}

func startPingServer(t *testing.T) *Server {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := pingService(0)
	srv := NewServer(svc, lis)
	go srv.Serve() //nolint:errcheck // exits on Close
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestTCPCodecNegotiationMatrix: the session runs the value encoding the
// client's hello requested, and calls work at every encoding.
func TestTCPCodecNegotiationMatrix(t *testing.T) {
	cases := []struct {
		name string
		pref wire.Codec
	}{
		{"wire-wire", wire.Default},
		{"wire-f32-server", wire.Codec{Enc: wire.F32}},
		{"wire-f16-server", wire.Codec{Enc: wire.F16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := startPingServer(t)
			c, err := DialCodec(srv.Addr(), tc.pref)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.(CodecCarrier).WireCodec(); got != tc.pref {
				t.Fatalf("session codec %v, want %v", got, tc.pref)
			}
			pingCall(t, c)
		})
	}
}

// TestNonAckHelloFailsDial dials a peer that answers the hello with
// something other than an ack — a server of some other protocol. The
// dial must fail with ErrBadFrame, and the client must hang up.
func TestNonAckHelloFailsDial(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	peerSaw := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			peerSaw <- err
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			peerSaw <- err
			return
		}
		if err := writeFrame(conn, []byte("not a hello ack")); err != nil {
			peerSaw <- err
			return
		}
		_, err = readFrame(conn) // returns once the client closes
		peerSaw <- err
	}()
	c, err := DialCodec(lis.Addr().String(), wire.Default)
	if err == nil {
		c.Close()
		t.Fatal("dial succeeded against a peer that never acked the hello")
	}
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("dial error %v, want ErrBadFrame", err)
	}
	select {
	case err := <-peerSaw:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("peer read %v after the failed dial, want EOF from a closed connection", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never closed the connection")
	}
}

// TestNoHelloServedOnDefault: a connection that opens with a request
// instead of a hello is served on wire.Default.
func TestNoHelloServedOnDefault(t *testing.T) {
	srv := startPingServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 1.1 is not exact in f32 or f16, so only an f64 session echoes the
	// lossless doubled value.
	req, err := EncodeRequestFrame(wire.Default, "ping", &pingMsg{N: 21, Vals: []float64{1.1, 0, -3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResponseFrame(wire.Default, &pingMsg{N: 42, Vals: []float64{2.2, 0, -6}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reply frame % x, want the wire.Default frame % x", got, want)
	}
}

// TestChannelCodecCarrier pins the in-process transport's codec plumbing:
// clients report the codec they were built with and wire messages round
// trip through the frame encoder (fresh structs, no aliasing).
func TestChannelCodecCarrier(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Default, {Enc: wire.F16}} {
		l, err := NewLocalCodec(2, pingService, codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range l.Clients() {
			if got := c.(CodecCarrier).WireCodec(); got != codec {
				t.Fatalf("channel client codec %v, want %v", got, codec)
			}
			pingCall(t, c)
		}
	}
}

// TestMangledWireFramesAreTypedErrors corrupts and truncates valid wire
// frames at every position: decoding must never panic and every failure
// must wrap ErrDecode — the class the engines' retry machinery and the
// chaos injector branch on.
func TestMangledWireFramesAreTypedErrors(t *testing.T) {
	codec := wire.Default
	reqFrame, err := EncodeRequestFrame(codec, "ping", &pingMsg{N: 5, Vals: []float64{1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := EncodeResponseFrame(codec, &pingMsg{N: 6, Vals: []float64{3}}, "")
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, decode func([]byte) error, frame []byte) {
		for cut := 0; cut < len(frame); cut++ {
			if err := decode(frame[:cut]); err != nil && !errors.Is(err, ErrDecode) {
				t.Fatalf("%s truncated at %d: untyped error %v", name, cut, err)
			}
		}
		for pos := 0; pos < len(frame); pos++ {
			mangled := append([]byte(nil), frame...)
			mangled[pos] ^= 0xA5
			if err := decode(mangled); err != nil && !errors.Is(err, ErrDecode) {
				t.Fatalf("%s corrupted at %d: untyped error %v", name, pos, err)
			}
		}
	}
	check("request", func(b []byte) error {
		_, _, err := DecodeRequestFrame(codec, b)
		return err
	}, reqFrame)
	check("response", func(b []byte) error {
		_, _, err := DecodeResponseFrame(codec, b)
		return err
	}, respFrame)
}

// TestWireRequestFrameRejectsLongMethod bounds the method-name length a
// hostile frame can claim.
func TestWireRequestFrameRejectsLongMethod(t *testing.T) {
	if _, err := EncodeRequestFrame(wire.Default, strings.Repeat("m", 2000), &pingMsg{}); err == nil {
		t.Fatal("expected an error encoding an oversized method name")
	}
}
