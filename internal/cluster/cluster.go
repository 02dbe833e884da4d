// Package cluster is the distributed execution substrate ColumnSGD runs
// on — the role Apache Spark plays in the paper. It provides a master/
// worker request-response layer with two interchangeable transports that
// carry the same compact frames (codec.go):
//
//   - an in-process transport (channel.go) that still encodes and decodes
//     every request and reply, so byte counts, encode costs, and worker
//     isolation match a real deployment while remaining deterministic;
//   - a TCP transport (tcp.go) that length-prefixes those frames for real
//     multi-process deployments (cmd/colsgd-node).
//
// The master drives workers through Client.Call (the paper's "master
// issues X() to all workers" pattern, Algorithms 2–4); workers expose
// named methods through a Service registry. Failure injection hooks
// support the straggler and fault-tolerance experiments (§IV-B, §X).
package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// Envelope carries a request whose arguments have no compact wire form
// inside the gob fallback payload of a request frame.
type Envelope struct {
	Method string
	Args   interface{}
}

// Error taxonomy. Every transport failure maps onto one of these
// sentinels so callers (the engines' retry/restart machinery, the chaos
// harness) can branch on the failure class with errors.Is instead of
// string matching:
//
//   - ErrWorkerDown: the worker is unreachable — crash, severed link,
//     closed connection. Recoverable only by restarting the worker.
//   - ErrBadFrame: the length-prefixed framing itself is violated
//     (oversized or truncated frame, or a peer that does not answer the
//     session hello). The connection cannot be resynced.
//   - ErrDecode: a frame arrived but its payload does not decode —
//     corruption, truncation inside the payload, or a type mismatch.
var (
	// ErrWorkerDown is returned by calls to a failed worker.
	ErrWorkerDown = errors.New("cluster: worker down")
	// ErrBadFrame marks violations of the length-prefixed framing.
	ErrBadFrame = errors.New("cluster: bad frame")
	// ErrDecode marks payloads that fail to decode.
	ErrDecode = errors.New("cluster: decode failed")
)

// Client is the master's handle to one worker.
type Client interface {
	// Call invokes a named method. args is encoded into a request frame;
	// the decoded result is stored into reply (a non-nil pointer, or nil
	// to discard).
	Call(method string, args, reply interface{}) error
	// Bytes returns cumulative request+response payload bytes.
	Bytes() int64
	// Messages returns cumulative request+response message count.
	Messages() int64
	// Close releases the client.
	Close() error
}

// HandlerFunc processes one decoded request and returns a result.
type HandlerFunc func(args interface{}) (interface{}, error)

// Service is a worker-side method registry.
type Service struct {
	mu      sync.RWMutex
	methods map[string]HandlerFunc
}

// NewService creates an empty registry.
func NewService() *Service {
	return &Service{methods: make(map[string]HandlerFunc)}
}

// Register binds a method name to a handler. Re-registering replaces the
// previous handler.
func (s *Service) Register(method string, h HandlerFunc) {
	s.mu.Lock()
	s.methods[method] = h
	s.mu.Unlock()
}

// Dispatch routes one request to its handler.
func (s *Service) Dispatch(method string, args interface{}) (interface{}, error) {
	s.mu.RLock()
	h, ok := s.methods[method]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: unknown method %q", method)
	}
	return h(args)
}

// decode gob-decodes a fallback payload into v. Arbitrary (corrupted,
// truncated, adversarial) bytes must surface as ErrDecode, never a
// panic: gob recovers its own internal panics, but a defensive guard
// keeps any that escape from killing a worker that was fed a mangled
// frame.
func decode(data []byte, v interface{}) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: decoder panic: %v", ErrDecode, r)
		}
	}()
	if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(v); derr != nil {
		return fmt.Errorf("%w: %v", ErrDecode, derr)
	}
	return nil
}

// storeReply copies a decoded value into the caller's reply pointer.
func storeReply(reply, value interface{}) error {
	if reply == nil {
		return nil
	}
	rv := reflect.ValueOf(reply)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("cluster: reply must be a non-nil pointer, got %T", reply)
	}
	if value == nil {
		return nil
	}
	vv := reflect.ValueOf(value)
	// Handlers commonly return pointers; unwrap when the caller's reply
	// target expects the element type.
	if !vv.Type().AssignableTo(rv.Elem().Type()) && vv.Kind() == reflect.Ptr && !vv.IsNil() &&
		vv.Elem().Type().AssignableTo(rv.Elem().Type()) {
		vv = vv.Elem()
	}
	if !vv.Type().AssignableTo(rv.Elem().Type()) {
		return fmt.Errorf("cluster: cannot assign %s reply into %s", vv.Type(), rv.Elem().Type())
	}
	rv.Elem().Set(vv)
	return nil
}

// Broadcast calls the same method on every client concurrently and
// collects the per-worker errors (nil entries for successes). makeReply
// may be nil for fire-and-forget methods; otherwise it must return a
// fresh reply pointer per worker.
func Broadcast(clients []Client, method string, args interface{}, makeReply func(worker int) interface{}) []error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c Client) {
			defer wg.Done()
			var reply interface{}
			if makeReply != nil {
				reply = makeReply(i)
			}
			errs[i] = c.Call(method, args, reply)
		}(i, c)
	}
	wg.Wait()
	return errs
}

// FirstError returns the first non-nil error with its worker index, or
// (-1, nil).
func FirstError(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
