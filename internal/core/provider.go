package core

import (
	"fmt"

	"columnsgd/internal/cluster"
	"columnsgd/internal/membership"
	"columnsgd/internal/wire"
)

// Provider abstracts where the workers run: in-process (LocalProvider) or
// across TCP (cmd/colsgd-node + RemoteProvider). The engine only needs
// clients plus restart for fault tolerance.
type Provider interface {
	// Clients returns one client per worker, indexed by worker ID.
	Clients() []cluster.Client
	// Restart replaces a failed worker with a fresh, empty one.
	Restart(worker int) error
}

// FailureInjector is implemented by providers that can simulate machine
// crashes (the in-process provider; used by the fault-tolerance and
// straggler experiments).
type FailureInjector interface {
	Fail(worker int)
}

// ElasticProvider is a Provider whose worker slots are hosted on a
// mutable node fleet: membership events can add, retire, or crash nodes
// and rehost slots between them (membership.NewPool, or chaos.Provider
// wrapping one). Config.Membership requires one.
type ElasticProvider interface {
	Provider
	// NodePool exposes the fleet-mutation surface the membership
	// controller drives.
	NodePool() membership.NodePool
}

// LocalProvider runs the workers in-process over the serializing channel
// transport.
type LocalProvider struct {
	local *cluster.Local
}

// NewLocalProvider starts k in-process ColumnSGD workers on the default
// codec.
func NewLocalProvider(k int) (*LocalProvider, error) {
	return NewLocalProviderCodec(k, wire.Default)
}

// NewLocalProviderCodec starts k in-process workers on an explicit
// statistics codec.
func NewLocalProviderCodec(k int, codec wire.Codec) (*LocalProvider, error) {
	local, err := cluster.NewLocalCodec(k, func(worker int) (*cluster.Service, error) {
		return NewWorkerService(), nil
	}, codec)
	if err != nil {
		return nil, err
	}
	return &LocalProvider{local: local}, nil
}

// Clients implements Provider.
func (p *LocalProvider) Clients() []cluster.Client { return p.local.Clients() }

// Restart implements Provider.
func (p *LocalProvider) Restart(worker int) error { return p.local.Restart(worker) }

// Fail implements FailureInjector.
func (p *LocalProvider) Fail(worker int) { p.local.Fail(worker) }

// RemoteProvider connects to already-running worker processes over TCP.
type RemoteProvider struct {
	addrs   []string
	codec   wire.Codec
	clients []cluster.Client
}

// NewRemoteProvider dials one worker per address on the default codec.
func NewRemoteProvider(addrs []string) (*RemoteProvider, error) {
	return NewRemoteProviderCodec(addrs, wire.Default)
}

// NewRemoteProviderCodec dials one worker per address requesting an
// explicit codec preference.
func NewRemoteProviderCodec(addrs []string, codec wire.Codec) (*RemoteProvider, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("core: remote provider needs at least one address")
	}
	p := &RemoteProvider{addrs: addrs, codec: codec, clients: make([]cluster.Client, len(addrs))}
	for i, addr := range addrs {
		c, err := cluster.DialCodec(addr, codec)
		if err != nil {
			for _, prev := range p.clients[:i] {
				prev.Close()
			}
			return nil, err
		}
		p.clients[i] = c
	}
	return p, nil
}

// Clients implements Provider.
func (p *RemoteProvider) Clients() []cluster.Client { return p.clients }

// Restart implements Provider by redialing the worker's address — the
// worker process itself must have been restarted by the operator (or a
// supervisor); the engine then reloads its state.
func (p *RemoteProvider) Restart(worker int) error {
	if worker < 0 || worker >= len(p.clients) {
		return fmt.Errorf("core: restart: no worker %d", worker)
	}
	p.clients[worker].Close()
	c, err := cluster.DialCodec(p.addrs[worker], p.codec)
	if err != nil {
		return fmt.Errorf("core: redial worker %d: %w", worker, err)
	}
	p.clients[worker] = c
	return nil
}

// Close closes all clients.
func (p *RemoteProvider) Close() {
	for _, c := range p.clients {
		c.Close()
	}
}
