package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"columnsgd/internal/cluster"
	"columnsgd/internal/dataset"
)

// recordingProvider is a fleet of fake workers that answer every call at
// once and record it, so a test sees each worker's calls in the order
// they arrive and no worker goroutine muddies a goroutine count.
type recordingProvider struct {
	mu       sync.Mutex
	calls    [][]string // per worker: "load b<block>/p<part>" or the method name
	inFlight []int
	peak     []int
	// failAt fails worker failWorker's failAt-th load (1-based; 0 never).
	failWorker, failAt int
}

var errInjectedLoad = errors.New("injected load failure")

func (p *recordingProvider) Clients() []cluster.Client {
	out := make([]cluster.Client, len(p.calls))
	for w := range out {
		out[w] = &recordingClient{p: p, w: w}
	}
	return out
}

func (p *recordingProvider) Restart(int) error { return errors.New("no restart") }

type recordingClient struct {
	p *recordingProvider
	w int
}

func (c *recordingClient) Bytes() int64    { return 0 }
func (c *recordingClient) Messages() int64 { return 0 }
func (c *recordingClient) Close() error    { return nil }

func (c *recordingClient) Call(method string, args, _ interface{}) error {
	p := c.p
	p.mu.Lock()
	rec, loads := method, 0
	if a, ok := args.(*LoadArgs); ok {
		rec = fmt.Sprintf("load b%d/p%d", a.Workset.BlockID, a.Partition)
		for _, s := range p.calls[c.w] {
			if strings.HasPrefix(s, "load") {
				loads++
			}
		}
		loads++
	}
	p.calls[c.w] = append(p.calls[c.w], rec)
	p.inFlight[c.w]++
	p.peak[c.w] = max(p.peak[c.w], p.inFlight[c.w])
	fail := c.w == p.failWorker && loads == p.failAt
	p.mu.Unlock()
	if method == MethodLoad {
		time.Sleep(20 * time.Microsecond) // let the other senders overtake
	}
	p.mu.Lock()
	p.inFlight[c.w]--
	p.mu.Unlock()
	if fail {
		return errInjectedLoad
	}
	return nil
}

func newRecordingEngine(t *testing.T, cfg Config, failWorker, failAt int) (*Engine, *recordingProvider) {
	t.Helper()
	p := &recordingProvider{
		calls:      make([][]string, cfg.Workers),
		inFlight:   make([]int, cfg.Workers),
		peak:       make([]int, cfg.Workers),
		failWorker: failWorker,
		failAt:     failAt,
	}
	e, err := NewEngine(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

// leftLoadGoroutines counts the goroutines a load started that are still
// running, waiting up to 2 s for exiting ones to finish. Tests in this
// package leave worker goroutines winding down, so a bare
// runtime.NumGoroutine comparison could not tell a leak from their exit.
func leftLoadGoroutines() int {
	buf := make([]byte, 1<<20)
	count := func() int {
		n := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "core.(*Engine).dispatchLoads") || strings.Contains(g, "dataset.(*BlockReader).parse") {
				n++
			}
		}
		return n
	}
	n := count()
	for deadline := time.Now().Add(2 * time.Second); n > 0 && time.Now().Before(deadline); n = count() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestPipelinedLoadOrder: every worker receives exactly the calls a serial
// load would make — its partitions' worksets in ascending block order,
// then MethodLoadDone — with one MethodLoad in flight at a time, and the
// load leaves no goroutine behind.
func TestPipelinedLoadOrder(t *testing.T) {
	for _, backup := range []int{0, 1} {
		cfg := baseConfig(4)
		cfg.Backup = backup
		ds := testData(t, 200, 24, 7)
		e, p := newRecordingEngine(t, cfg, -1, 0)
		if err := e.Load(ds); err != nil {
			t.Fatal(err)
		}
		if n := leftLoadGoroutines(); n != 0 {
			t.Errorf("backup %d: %d load goroutines left running", backup, n)
		}
		blocks := (ds.N() + cfg.BlockSize - 1) / cfg.BlockSize
		for w := 0; w < cfg.Workers; w++ {
			want := []string{MethodInit}
			for b := 0; b < blocks; b++ {
				for _, part := range e.workerParts[w] {
					want = append(want, fmt.Sprintf("load b%d/p%d", b, part))
				}
			}
			want = append(want, MethodLoadDone)
			if got := p.calls[w]; strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("backup %d worker %d calls:\n got %v\nwant %v", backup, w, got, want)
			}
			if p.peak[w] != 1 {
				t.Errorf("backup %d worker %d: %d calls in flight at once", backup, w, p.peak[w])
			}
		}
	}
}

// TestPipelinedLoadFailure: a failure on worker 1's third load comes back
// naming that block and worker, no worker gets MethodLoadDone, and no
// goroutine is left behind.
func TestPipelinedLoadFailure(t *testing.T) {
	cfg := baseConfig(2)
	ds := testData(t, 300, 16, 11)
	e, p := newRecordingEngine(t, cfg, 1, 3)
	err := e.Load(ds)
	if err == nil {
		t.Fatal("injected load failure swallowed")
	}
	if !errors.Is(err, errInjectedLoad) {
		t.Fatalf("error %v does not wrap the injected failure", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "block 2 ") || !strings.Contains(msg, "worker 1") {
		t.Fatalf("error %q does not name block 2 and worker 1", msg)
	}
	if n := leftLoadGoroutines(); n != 0 {
		t.Errorf("%d load goroutines left running after the failed load", n)
	}
	for w, calls := range p.calls {
		for _, c := range calls {
			if c == MethodLoadDone {
				t.Errorf("worker %d got %s after a failed load", w, c)
			}
		}
		// Worker 1 stops at its failed load.
		if w == 1 && calls[len(calls)-1] != "load b2/p1" {
			t.Errorf("worker 1 calls after the failure: %v", calls)
		}
	}
}

// TestPipelinedLoadFileParseError: a bad row in the middle of a file fails
// LoadFile with the parser's own error, after the blocks before it were
// loaded in order, and no goroutine is left behind.
func TestPipelinedLoadFileParseError(t *testing.T) {
	cfg := baseConfig(2)
	ds := testData(t, 100, 16, 13)
	var sb strings.Builder
	if err := dataset.WriteLibSVM(&sb, ds); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(sb.String(), "\n")
	lines[39] = "1 3:x\n" // row 40, in block 2 of 16-row blocks
	path := filepath.Join(t.TempDir(), "bad.libsvm")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	e, p := newRecordingEngine(t, cfg, -1, 0)
	err := e.LoadFile(path, ds.NumFeatures)
	if err == nil || !strings.HasPrefix(err.Error(), `dataset: line 40: bad value "x"`) {
		t.Fatalf("LoadFile error %v, want the parser's line 40 error", err)
	}
	if n := leftLoadGoroutines(); n != 0 {
		t.Errorf("%d load goroutines left running after the failed load", n)
	}
	for w, calls := range p.calls {
		if want := []string{MethodInit, fmt.Sprintf("load b0/p%d", w), fmt.Sprintf("load b1/p%d", w)}; strings.Join(calls, ",") != strings.Join(want, ",") {
			t.Errorf("worker %d calls %v, want %v", w, calls, want)
		}
	}
}
