package main

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	columnsgd "columnsgd"
)

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestNodeServesThenDrainsOnSignal(t *testing.T) {
	var out syncBuffer
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-drain", "2s"}, &out, sig)
	}()

	// Wait for the worker to announce its address, then train against it.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("worker never announced; output %q", out.String())
		}
		if s := out.String(); strings.Contains(s, "worker on ") {
			addr = strings.TrimSpace(s[strings.Index(s, "worker on ")+len("worker on "):])
			addr = strings.SplitN(addr, "\n", 2)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	ds, err := columnsgd.Generate(columnsgd.Synthetic{
		N: 120, Features: 20, NNZPerRow: 4, NoiseRate: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := columnsgd.Train(ds, columnsgd.Config{
		LearningRate: 0.5, Workers: 1, BatchSize: 32, Iterations: 10, Seed: 2,
		WorkerAddrs: []string{addr},
	})
	if err != nil {
		t.Fatalf("training against the node: %v", err)
	}
	if res.FinalLoss <= 0 {
		t.Fatalf("loss %v", res.FinalLoss)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("node did not shut down")
	}
	if !strings.Contains(out.String(), "draining") {
		t.Fatalf("no drain notice: %q", out.String())
	}
}

// TestNodeHasNoCodecFlag: a worker serves whatever value encoding each
// master's hello names, so there is no codec for it to be told.
func TestNodeHasNoCodecFlag(t *testing.T) {
	var out syncBuffer
	err := run([]string{"-listen", "127.0.0.1:0", "-codec", "wire"}, &out, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -codec") {
		t.Fatalf("run with -codec = %v, want an unknown-flag error", err)
	}
}

func TestNodeBadListenAddress(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-listen", "256.0.0.1:-1"}, &out, make(chan os.Signal)); err == nil {
		t.Fatal("bad listen address accepted")
	}
}
