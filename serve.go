package columnsgd

import (
	"fmt"
	"net"
	"time"

	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
)

// WorkerServer is a ColumnSGD worker listening for a master over TCP.
type WorkerServer struct {
	srv *cluster.Server
}

// ServeWorker starts a worker on the given TCP address (":0" picks a free
// port) and serves in a background goroutine until Close. The returned
// server's Addr is what the master passes in Config.WorkerAddrs.
func ServeWorker(addr string) (*WorkerServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("columnsgd: listen %s: %w", addr, err)
	}
	srv := cluster.NewServer(core.NewWorkerService(), lis)
	go srv.Serve() //nolint:errcheck // Serve exits cleanly on Close
	return &WorkerServer{srv: srv}, nil
}

// Addr returns the worker's listen address.
func (w *WorkerServer) Addr() string { return w.srv.Addr() }

// Close stops the worker immediately, terminating in-flight RPCs.
func (w *WorkerServer) Close() error { return w.srv.Close() }

// Shutdown drains the worker gracefully: it stops accepting connections,
// lets RPCs that are mid-dispatch finish and flush their responses (up to
// timeout), then closes. Use this on SIGINT/SIGTERM so a master never
// sees a worker die mid-frame.
func (w *WorkerServer) Shutdown(timeout time.Duration) error { return w.srv.Shutdown(timeout) }

// ServeWorkerBlocking runs a worker in the calling goroutine until the
// listener fails or is closed.
func ServeWorkerBlocking(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("columnsgd: listen %s: %w", addr, err)
	}
	return cluster.NewServer(core.NewWorkerService(), lis).Serve()
}
