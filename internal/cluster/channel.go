package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"columnsgd/internal/wire"
)

// Local is an in-process cluster: K workers, each an isolated Service
// behind a serializing channel transport. Serialization means worker
// state never aliases master state (as in a real deployment), byte counts
// are exact wire counts, and any type that wouldn't survive a real network
// fails here too.
type Local struct {
	factory func(worker int) (*Service, error)
	workers []*localWorker
	codec   wire.Codec
}

type localWorker struct {
	id      int
	mu      sync.Mutex // serializes calls to this worker
	svc     *Service
	down    atomic.Bool
	bytes   atomic.Int64
	msgs    atomic.Int64
	factory func(worker int) (*Service, error)
}

// NewLocal builds an in-process cluster of k workers using the default
// codec. factory constructs each worker's service; it is also invoked on
// Restart, modelling a fresh process with empty state.
func NewLocal(k int, factory func(worker int) (*Service, error)) (*Local, error) {
	return NewLocalCodec(k, factory, wire.Default)
}

// NewLocalCodec is NewLocal with an explicit codec. There is no
// negotiation in-process — both ends are this process — so the codec is
// fixed at construction.
func NewLocalCodec(k int, factory func(worker int) (*Service, error), codec wire.Codec) (*Local, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", k)
	}
	l := &Local{factory: factory, workers: make([]*localWorker, k), codec: codec}
	for i := 0; i < k; i++ {
		svc, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: start worker %d: %w", i, err)
		}
		l.workers[i] = &localWorker{id: i, svc: svc, factory: factory}
	}
	return l, nil
}

// NumWorkers returns K.
func (l *Local) NumWorkers() int { return len(l.workers) }

// Clients returns one Client per worker.
func (l *Local) Clients() []Client {
	out := make([]Client, len(l.workers))
	for i, w := range l.workers {
		out[i] = &localClient{w: w, codec: l.codec}
	}
	return out
}

// Fail marks a worker as down: subsequent calls return ErrWorkerDown.
// Models a machine crash (§X, worker failure).
func (l *Local) Fail(worker int) { l.workers[worker].down.Store(true) }

// Restart replaces a failed worker with a fresh service built by the
// factory — empty state, as after a process restart. The engine is
// responsible for reloading data and reinitializing the model partition.
func (l *Local) Restart(worker int) error {
	w := l.workers[worker]
	svc, err := w.factory(worker)
	if err != nil {
		return fmt.Errorf("cluster: restart worker %d: %w", worker, err)
	}
	w.mu.Lock()
	w.svc = svc
	w.mu.Unlock()
	w.down.Store(false)
	return nil
}

// TotalTraffic sums bytes and messages across all workers.
func (l *Local) TotalTraffic() (messages, bytes int64) {
	for _, w := range l.workers {
		messages += w.msgs.Load()
		bytes += w.bytes.Load()
	}
	return
}

type localClient struct {
	w     *localWorker
	codec wire.Codec
}

// WireCodec implements CodecCarrier.
func (c *localClient) WireCodec() wire.Codec { return c.codec }

// Call implements Client with a full encode → dispatch → encode → decode
// round trip.
func (c *localClient) Call(method string, args, reply interface{}) error {
	w := c.w
	if w.down.Load() {
		return fmt.Errorf("%w: worker %d", ErrWorkerDown, w.id)
	}
	reqBuf, err := encodeRequestFrame(c.codec, method, args)
	if err != nil {
		return err
	}
	reqLen := len(reqBuf.b)

	w.mu.Lock()
	svc := w.svc
	// Decode into fresh values: the worker sees its own copy.
	reqMethod, reqArgs, derr := decodeRequestFrame(reqBuf.b)
	putFrameBuf(reqBuf) // decode copied everything out
	if derr != nil {
		w.mu.Unlock()
		return derr
	}
	value, herr := svc.Dispatch(reqMethod, reqArgs)
	w.mu.Unlock()

	errStr := ""
	if herr != nil {
		errStr = herr.Error()
	}
	respBuf, err := encodeResponseFrame(c.codec, value, errStr)
	if err != nil {
		return err
	}
	w.bytes.Add(int64(reqLen + len(respBuf.b)))
	w.msgs.Add(2)

	if w.down.Load() {
		// Crash raced with the call: the reply is lost.
		putFrameBuf(respBuf)
		return fmt.Errorf("%w: worker %d (reply lost)", ErrWorkerDown, w.id)
	}
	backValue, backErr, stored, derr := decodeResponseFrameInto(respBuf.b, reply)
	putFrameBuf(respBuf)
	if derr != nil {
		return derr
	}
	if backErr != "" {
		return fmt.Errorf("cluster: worker %d: %s", w.id, backErr)
	}
	if stored {
		return nil
	}
	return storeReply(reply, backValue)
}

// Bytes implements Client.
func (c *localClient) Bytes() int64 { return c.w.bytes.Load() }

// Messages implements Client.
func (c *localClient) Messages() int64 { return c.w.msgs.Load() }

// Close implements Client (no-op for the in-process transport).
func (c *localClient) Close() error { return nil }
