package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"columnsgd/internal/wire"
)

// NodeSet is the elastic sibling of Local: the same in-process
// serializing transport, but with worker *slots* decoupled from physical
// *nodes*. The K logical slots are fixed for the life of the job — every
// engine keeps addressing workers 0..K-1 — while the node hosting each
// slot can change at runtime (join/leave/crash, see internal/membership).
// Rehosting swaps the slot's client in place, so any holder of the
// Clients() slice observes the move on its next call without redialing.
type NodeSet struct {
	mu      sync.Mutex
	codec   wire.Codec
	factory func(slot int) (*Service, error)
	nodes   map[int]*clusterNode
	hosts   []int    // slot -> node id
	clients []Client // slot -> client; elements swapped in place on Rehost
	eps     []*nodeEndpoint
}

// clusterNode is one physical machine: a down flag shared by every
// endpoint it hosts. Crashing the node takes all of its slots with it.
type clusterNode struct {
	id   int
	down atomic.Bool
}

// nodeEndpoint is one slot's service instance on its current host node.
// It mirrors localWorker, with failure decided at two levels: the
// endpoint (Fail, a per-slot process crash) and the node (CrashNode).
type nodeEndpoint struct {
	node  *clusterNode
	slot  int
	mu    sync.Mutex // serializes calls to this endpoint
	svc   *Service
	down  atomic.Bool
	bytes atomic.Int64
	msgs  atomic.Int64
}

// NewNodeSet builds an elastic cluster of `slots` worker slots on an
// initial fleet of `slots` nodes, slot i hosted on node i — exactly the
// fixed-membership layout, so a NodeSet with no membership events is
// bit-identical to Local.
func NewNodeSet(slots int, factory func(slot int) (*Service, error), codec wire.Codec) (*NodeSet, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("cluster: need at least one worker slot, got %d", slots)
	}
	ns := &NodeSet{
		codec:   codec,
		factory: factory,
		nodes:   make(map[int]*clusterNode, slots),
		hosts:   make([]int, slots),
		clients: make([]Client, slots),
		eps:     make([]*nodeEndpoint, slots),
	}
	for i := 0; i < slots; i++ {
		ns.nodes[i] = &clusterNode{id: i}
	}
	for i := 0; i < slots; i++ {
		if err := ns.place(i, i); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// place builds a fresh service for slot on node and swaps it in.
// Callers hold no lock; place takes ns.mu itself.
func (ns *NodeSet) place(slot, node int) error {
	svc, err := ns.factory(slot)
	if err != nil {
		return fmt.Errorf("cluster: start slot %d on node %d: %w", slot, node, err)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, ok := ns.nodes[node]
	if !ok {
		return fmt.Errorf("cluster: rehost slot %d: unknown node %d", slot, node)
	}
	if n.down.Load() {
		return fmt.Errorf("cluster: rehost slot %d: node %d is down", slot, node)
	}
	ep := &nodeEndpoint{node: n, slot: slot, svc: svc}
	ns.hosts[slot] = node
	ns.eps[slot] = ep
	ns.clients[slot] = &nodeClient{ep: ep, codec: ns.codec}
	return nil
}

// NumWorkers returns the fixed slot count K.
func (ns *NodeSet) NumWorkers() int { return len(ns.hosts) }

// Clients returns the shared slot-indexed client slice. Elements are
// swapped in place by Rehost/Restart; the engine must not call a slot
// concurrently with rehosting it (the rebalance barrier guarantees this).
func (ns *NodeSet) Clients() []Client { return ns.clients }

// Host returns the node currently hosting slot.
func (ns *NodeSet) Host(slot int) int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.hosts[slot]
}

// AddNode brings a new (or previously removed) node into the fleet with
// no slots assigned.
func (ns *NodeSet) AddNode(node int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if n, ok := ns.nodes[node]; ok && !n.down.Load() {
		return fmt.Errorf("cluster: add node %d: already present", node)
	}
	ns.nodes[node] = &clusterNode{id: node}
	return nil
}

// RemoveNode retires a node from the fleet. It must not be hosting any
// slot — migrate first (see membership.Controller).
func (ns *NodeSet) RemoveNode(node int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.nodes[node]; !ok {
		return fmt.Errorf("cluster: remove node %d: unknown node", node)
	}
	for slot, h := range ns.hosts {
		if h == node {
			return fmt.Errorf("cluster: remove node %d: still hosting slot %d", node, slot)
		}
	}
	delete(ns.nodes, node)
	return nil
}

// CrashNode marks a node dead: every slot it hosts starts returning
// ErrWorkerDown and its state is unrecoverable (unlike Fail+Restart,
// which models a process restart on the same machine).
func (ns *NodeSet) CrashNode(node int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n, ok := ns.nodes[node]
	if !ok {
		return fmt.Errorf("cluster: crash node %d: unknown node", node)
	}
	n.down.Store(true)
	return nil
}

// Rehost moves slot to node: a fresh service (empty state, as after a
// process start) replaces the old endpoint, and the slot's client is
// swapped in place. The engine reloads data and imports migrated state
// afterwards.
func (ns *NodeSet) Rehost(slot, node int) error {
	if slot < 0 || slot >= len(ns.hosts) {
		return fmt.Errorf("cluster: rehost: no slot %d", slot)
	}
	return ns.place(slot, node)
}

// Fail marks a slot's endpoint as down (per-slot process crash on a live
// node): subsequent calls return ErrWorkerDown until Restart.
func (ns *NodeSet) Fail(slot int) {
	ns.mu.Lock()
	ep := ns.eps[slot]
	ns.mu.Unlock()
	ep.down.Store(true)
}

// Restart replaces a slot's service with a fresh one on its current
// node, clearing the endpoint down flag. It fails if the node itself is
// dead — recovering from a node crash requires a Rehost.
func (ns *NodeSet) Restart(slot int) error {
	ns.mu.Lock()
	node := ns.hosts[slot]
	n := ns.nodes[node]
	ns.mu.Unlock()
	if n == nil || n.down.Load() {
		return fmt.Errorf("cluster: restart slot %d: node %d is down", slot, node)
	}
	return ns.place(slot, node)
}

// TotalTraffic sums bytes and messages across current endpoints.
func (ns *NodeSet) TotalTraffic() (messages, bytes int64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, ep := range ns.eps {
		messages += ep.msgs.Load()
		bytes += ep.bytes.Load()
	}
	return
}

// nodeClient is localClient over a nodeEndpoint: identical frame round
// trip, with "down" decided by endpoint OR node.
type nodeClient struct {
	ep    *nodeEndpoint
	codec wire.Codec
}

// WireCodec implements CodecCarrier.
func (c *nodeClient) WireCodec() wire.Codec { return c.codec }

func (ep *nodeEndpoint) isDown() bool { return ep.down.Load() || ep.node.down.Load() }

// Call implements Client with the same encode → dispatch → encode →
// decode round trip as the fixed-membership transport.
func (c *nodeClient) Call(method string, args, reply interface{}) error {
	ep := c.ep
	if ep.isDown() {
		return fmt.Errorf("%w: worker %d", ErrWorkerDown, ep.slot)
	}
	reqBuf, err := encodeRequestFrame(c.codec, method, args)
	if err != nil {
		return err
	}
	reqLen := len(reqBuf.b)

	ep.mu.Lock()
	svc := ep.svc
	reqMethod, reqArgs, derr := decodeRequestFrame(reqBuf.b)
	putFrameBuf(reqBuf)
	if derr != nil {
		ep.mu.Unlock()
		return derr
	}
	value, herr := svc.Dispatch(reqMethod, reqArgs)
	ep.mu.Unlock()

	errStr := ""
	if herr != nil {
		errStr = herr.Error()
	}
	respBuf, err := encodeResponseFrame(c.codec, value, errStr)
	if err != nil {
		return err
	}
	ep.bytes.Add(int64(reqLen + len(respBuf.b)))
	ep.msgs.Add(2)

	if ep.isDown() {
		// Crash raced with the call: the reply is lost.
		putFrameBuf(respBuf)
		return fmt.Errorf("%w: worker %d (reply lost)", ErrWorkerDown, ep.slot)
	}
	backValue, backErr, stored, derr := decodeResponseFrameInto(respBuf.b, reply)
	putFrameBuf(respBuf)
	if derr != nil {
		return derr
	}
	if backErr != "" {
		return fmt.Errorf("cluster: worker %d: %s", ep.slot, backErr)
	}
	if stored {
		return nil
	}
	return storeReply(reply, backValue)
}

// Bytes implements Client.
func (c *nodeClient) Bytes() int64 { return c.ep.bytes.Load() }

// Messages implements Client.
func (c *nodeClient) Messages() int64 { return c.ep.msgs.Load() }

// Close implements Client (no-op for the in-process transport).
func (c *nodeClient) Close() error { return nil }
