// Command colsgd-node runs one ColumnSGD worker as a standalone process,
// serving the worker protocol over TCP until killed or signalled. A master
// (colsgd-train -addrs, or the library with Config.WorkerAddrs) connects,
// pushes column partitions, and drives SGD iterations.
//
// Usage:
//
//	colsgd-node -listen :7070          # on each worker machine
//	colsgd-train -data d.libsvm -addrs w1:7070,w2:7070,w3:7070
//
// If the process is restarted after a crash, the master's fault-tolerance
// path (§X of the paper) re-initializes it and reloads its shard on the
// next iteration — no local state is needed. SIGINT/SIGTERM drain
// in-flight RPCs (up to -drain) before shutting the worker down.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	columnsgd "columnsgd"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil {
		fmt.Fprintln(os.Stderr, "colsgd-node:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("colsgd-node", flag.ContinueOnError)
	listen := fs.String("listen", ":7070", "TCP listen address")
	drain := fs.Duration("drain", 10*time.Second, "grace period for in-flight RPCs on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := columnsgd.ServeWorker(*listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "colsgd-node: serving ColumnSGD worker on %s\n", srv.Addr())

	s := <-sig
	fmt.Fprintf(stdout, "colsgd-node: %v — draining (up to %v) and shutting down\n", s, *drain)
	return srv.Shutdown(*drain)
}
