package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"columnsgd/internal/wire"
)

// maxFrame bounds a single framed message (worksets for huge blocks stay
// far below this; the bound rejects corrupt length prefixes).
const maxFrame = 1 << 30

// frameChunk is the largest payload readFrame allocates before any of
// its bytes arrive. Every per-round frame fits in one chunk; a larger
// claimed length is read in growing steps, so a corrupt or hostile length
// prefix costs memory only for the bytes the peer really sends.
const frameChunk = 1 << 20

// Session hello. A client opens every connection with a 7-byte hello
// frame naming the codec version and the value encoding it will send; the
// server answers with an ack echoing the session codec. A connection
// that sends no hello is served on wire.Default. Hello traffic is session
// setup, not statistics exchange, so it is excluded from the byte
// counters.
const (
	helloRequestTag = 1
	helloAckTag     = 2
	helloVersion    = 1 // the compact frames of codec.go
)

var helloMagic = [4]byte{'c', 'S', 'G', 'D'}

func helloFrame(tag byte, c wire.Codec) []byte {
	return []byte{helloMagic[0], helloMagic[1], helloMagic[2], helloMagic[3], tag, helloVersion, byte(c.Enc)}
}

// parseHello recognizes a hello or ack frame. A request frame starts with
// wireRequestMarker, never with the magic, so the two cannot collide.
func parseHello(frame []byte, tag byte) (wire.Codec, bool) {
	if len(frame) != 7 || !bytes.Equal(frame[:4], helloMagic[:]) || frame[4] != tag || frame[5] != helloVersion {
		return wire.Codec{}, false
	}
	c := wire.Codec{Enc: wire.Encoding(frame[6])}
	if !c.Enc.Valid() {
		c.Enc = wire.F64
	}
	return c, true
}

// writeFrame writes a length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, len(payload))
	}
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrBadFrame, n)
	}
	size := int(n)
	payload := make([]byte, 0, min(size, frameChunk))
	for len(payload) < size {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(2*cap(payload), size))
			copy(grown, payload)
			payload = grown
		}
		got, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+got]
		if err != nil {
			if err == io.EOF && len(payload) > 0 {
				err = io.ErrUnexpectedEOF
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
			}
			return nil, err
		}
	}
	return payload, nil
}

// Server serves one worker's Service over TCP. A worker process creates
// its Service, then runs Serve on a listener; the master dials it.
type Server struct {
	svc    *Service
	lis    net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed atomic.Bool

	// Drain bookkeeping: activeN counts requests being handled right now;
	// idle is closed (once) when draining begins and activeN reaches 0.
	activeN  int
	draining bool
	idle     chan struct{}
	idleOnce sync.Once
}

// NewServer wraps a service and a listener.
func NewServer(svc *Service, lis net.Listener) *Server {
	return &Server{svc: svc, lis: lis, conns: make(map[net.Conn]struct{}), idle: make(chan struct{})}
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Serve accepts connections until the listener is closed. Each connection
// handles requests sequentially (the master issues one call at a time per
// worker, per the BSP execution model).
func (s *Server) Serve() error {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return fmt.Errorf("cluster: accept: %w", err)
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	codec := wire.Default
	for {
		reqBytes, err := readFrame(conn)
		if err != nil {
			return // connection closed or broken; master will redial
		}
		if req, ok := parseHello(reqBytes, helloRequestTag); ok {
			codec = req
			if writeFrame(conn, helloFrame(helloAckTag, codec)) != nil {
				return
			}
			continue
		}
		s.beginRequest()
		method, args, derr := decodeRequestFrame(reqBytes)
		var value interface{}
		errStr := ""
		if derr != nil {
			errStr = derr.Error()
		} else {
			var herr error
			value, herr = s.svc.Dispatch(method, args)
			if herr != nil {
				errStr = herr.Error()
			}
		}
		respBuf, err := encodeResponseFrame(codec, value, errStr)
		if err != nil {
			// Encoding the handler result failed (unregistered type);
			// report it instead of the value.
			respBuf, err = encodeResponseFrame(codec, nil, err.Error())
			if err != nil {
				s.endRequest()
				return
			}
		}
		werr := writeFrame(conn, respBuf.b)
		putFrameBuf(respBuf) // the frame is on the wire (or failed)
		s.endRequest()
		if werr != nil {
			return
		}
	}
}

func (s *Server) beginRequest() {
	s.mu.Lock()
	s.activeN++
	s.mu.Unlock()
}

func (s *Server) endRequest() {
	s.mu.Lock()
	s.activeN--
	if s.draining && s.activeN == 0 {
		s.idleOnce.Do(func() { close(s.idle) })
	}
	s.mu.Unlock()
}

// Close shuts the server down, terminating open connections.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.lis.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// Shutdown drains the server gracefully: it stops accepting connections,
// waits up to timeout for requests that are mid-dispatch to finish and
// flush their responses, then closes the remaining connections — a
// signalled worker completes the RPC it is serving instead of dying
// mid-frame.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.closed.Store(true)
	err := s.lis.Close()
	s.mu.Lock()
	s.draining = true
	if s.activeN == 0 {
		s.idleOnce.Do(func() { close(s.idle) })
	}
	s.mu.Unlock()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-s.idle:
	case <-timer.C:
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// tcpClient is the master's handle to one TCP worker.
type tcpClient struct {
	mu    sync.Mutex
	conn  net.Conn
	codec wire.Codec
	bytes atomic.Int64
	msgs  atomic.Int64
}

// Dial connects to a worker server on the default codec.
func Dial(addr string) (Client, error) { return DialCodec(addr, wire.Default) }

// DialCodec connects to a worker server and opens the session with a
// hello requesting pref's value encoding. A peer that answers with
// anything but an ack does not speak this protocol: the dial fails with
// ErrBadFrame and the connection is closed.
func DialCodec(addr string, pref wire.Codec) (Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	if err := writeFrame(conn, helloFrame(helloRequestTag, pref)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: hello %s: %w", addr, err)
	}
	first, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: hello %s: %w", addr, err)
	}
	ack, ok := parseHello(first, helloAckTag)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("cluster: hello %s: %w: reply is not a hello ack", addr, ErrBadFrame)
	}
	return &tcpClient{conn: conn, codec: ack}, nil
}

// WireCodec implements CodecCarrier.
func (c *tcpClient) WireCodec() wire.Codec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.codec
}

// Call implements Client.
func (c *tcpClient) Call(method string, args, reply interface{}) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	reqBuf, err := encodeRequestFrame(c.codec, method, args)
	if err != nil {
		return err
	}
	reqLen := len(reqBuf.b)
	if c.conn == nil {
		putFrameBuf(reqBuf)
		return ErrWorkerDown
	}
	werr := writeFrame(c.conn, reqBuf.b)
	putFrameBuf(reqBuf)
	if werr != nil {
		return fmt.Errorf("%w: %v", ErrWorkerDown, werr)
	}
	respBytes, err := readFrame(c.conn)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: connection lost", ErrWorkerDown)
		}
		return fmt.Errorf("%w: %v", ErrWorkerDown, err)
	}
	c.bytes.Add(int64(reqLen + len(respBytes)))
	c.msgs.Add(2)
	value, errStr, stored, derr := decodeResponseFrameInto(respBytes, reply)
	if derr != nil {
		return derr
	}
	if errStr != "" {
		return fmt.Errorf("cluster: remote: %s", errStr)
	}
	if stored {
		return nil
	}
	return storeReply(reply, value)
}

// Bytes implements Client.
func (c *tcpClient) Bytes() int64 { return c.bytes.Load() }

// Messages implements Client.
func (c *tcpClient) Messages() int64 { return c.msgs.Load() }

// Close implements Client.
func (c *tcpClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
