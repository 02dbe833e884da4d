package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"columnsgd/internal/cluster"
	"columnsgd/internal/rowsgd"
)

// bannerTimeout bounds how long a child may take to print its listen
// address; stallTimeout bounds one round or request before the watchdog
// kills the fleet so the stuck call fails instead of hanging the run.
const (
	bannerTimeout = 10 * time.Second
	stallTimeout  = 30 * time.Second
)

// fleet owns every child process and the scratch directory of one run.
// Nothing it starts outlives close: children are killed and reaped, the
// directory is removed.
type fleet struct {
	work string // scratch directory, removed by close
	bin  string // directory holding the built child binaries
	self string // this executable, re-run with -role for rowsgd workers

	mu     sync.Mutex
	procs  map[*proc]struct{}
	closed bool
}

// proc is one running child.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the child has been reaped
}

// newFleet creates the scratch directory under root.
func newFleet(root string) (*fleet, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	return &fleet{work: work, bin: filepath.Join(work, "bin"), self: self, procs: make(map[*proc]struct{})}, nil
}

// build compiles the two child binaries from the enclosing columnsgd
// module into the scratch directory. modDir is the benchmark module.
func (f *fleet) build(modDir string) error {
	cmd := exec.Command("go", "build", "-o", f.bin+string(os.PathSeparator),
		"columnsgd/cmd/colsgd-node", "columnsgd/cmd/colsgd-serve")
	cmd.Dir = modDir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build child binaries: %w", err)
	}
	return nil
}

// start launches a child listening on 127.0.0.1:0 and returns once it has
// printed its banner, whose last field is the address it bound.
func (f *fleet) start(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The kernel kills the child if this process dies without running
	// close (SIGKILL, a panic on another goroutine).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet closed")
	}
	if err := cmd.Start(); err != nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	f.procs[p] = struct{}{}
	f.mu.Unlock()

	banner := make(chan string, 1)
	go func() {
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		banner <- line
		io.Copy(io.Discard, r) //nolint:errcheck // drain so the child never blocks on stdout
		cmd.Wait()             //nolint:errcheck // exit status of a killed child is not news
		close(p.done)
	}()
	select {
	case line := <-banner:
		fields := strings.Fields(line)
		if len(fields) == 0 {
			f.stop(p)
			return nil, fmt.Errorf("%s exited before printing its address", filepath.Base(bin))
		}
		p.addr = fields[len(fields)-1]
		if _, _, err := net.SplitHostPort(p.addr); err != nil {
			f.stop(p)
			return nil, fmt.Errorf("%s banner %q: %w", filepath.Base(bin), strings.TrimSpace(line), err)
		}
		return p, nil
	case <-time.After(bannerTimeout):
		f.stop(p)
		return nil, fmt.Errorf("%s printed no address within %v", filepath.Base(bin), bannerTimeout)
	}
}

func (f *fleet) startNode() (*proc, error) {
	return f.start(filepath.Join(f.bin, "colsgd-node"), "-listen", "127.0.0.1:0")
}

func (f *fleet) startRowNode() (*proc, error) {
	return f.start(f.self, "-role", "rowsgd-node")
}

// stop kills one child and waits until it has been reaped.
func (f *fleet) stop(p *proc) {
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-p.done
	f.mu.Lock()
	delete(f.procs, p)
	f.mu.Unlock()
}

// killAll stops every running child; the fleet stays usable.
func (f *fleet) killAll() {
	f.mu.Lock()
	ps := make([]*proc, 0, len(f.procs))
	for p := range f.procs {
		ps = append(ps, p)
	}
	f.mu.Unlock()
	for _, p := range ps {
		f.stop(p)
	}
}

// running reports how many children are alive.
func (f *fleet) running() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.procs)
}

// close stops every child and removes the scratch directory. Idempotent.
func (f *fleet) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.killAll()
	os.RemoveAll(f.work)
}

// watchdog calls onStall once if beat is not called for stallTimeout. It
// turns a hung worker into a failed call: onStall kills the fleet, which
// breaks the connection the stuck call is waiting on.
type watchdog struct {
	beatCh chan struct{}
	stopCh chan struct{}
	done   chan struct{}
}

func newWatchdog(timeout time.Duration, onStall func()) *watchdog {
	w := &watchdog{beatCh: make(chan struct{}, 1), stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTimer(timeout)
		defer t.Stop()
		for {
			select {
			case <-w.beatCh:
				if !t.Stop() {
					select {
					case <-t.C:
					default:
					}
				}
				t.Reset(timeout)
			case <-t.C:
				onStall()
				return
			case <-w.stopCh:
				return
			}
		}
	}()
	return w
}

// beat records progress. It never blocks: a pending beat is enough.
func (w *watchdog) beat() {
	select {
	case w.beatCh <- struct{}{}:
	default:
	}
}

func (w *watchdog) stop() {
	close(w.stopCh)
	<-w.done
}

// procStatus reads one kB-valued field (VmHWM, VmRSS) of /proc/<pid>/status
// in bytes.
func procStatus(pid int, field string) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 || fields[1] != "kB" {
				break
			}
			kb, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				break
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, pid)
}

// peakRSS returns the peak resident set (VmHWM) of pid in bytes.
func peakRSS(pid int) (int64, error) { return procStatus(pid, "VmHWM") }

// masterRSS measures how far this process's resident set rises above
// where it stood when the pass began. The generated inputs, and in a set
// the inputs of the other four workloads, are resident before the pass and
// are the harness's, not the system's; what the pass adds is the master's.
type masterRSS struct{ base int64 }

func startMasterRSS() masterRSS {
	debug.FreeOSMemory() // garbage of the previous pass would hide this one's growth
	// Writing 5 restarts VmHWM. Where the kernel refuses, the peak is the
	// process's lifetime peak and the growth an over-estimate.
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck
	base, _ := procStatus(os.Getpid(), "VmRSS")
	return masterRSS{base}
}

// growth returns the peak rise in bytes since startMasterRSS.
func (m masterRSS) growth() (int64, error) {
	peak, err := peakRSS(os.Getpid())
	if err != nil || peak < m.base {
		return 0, err
	}
	return peak - m.base, nil
}

// serveRowNode is the -role rowsgd-node entry point: one rowsgd worker
// behind a cluster.Server on an ephemeral loopback port, until killed.
func serveRowNode(stdout io.Writer) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := cluster.NewServer(rowsgd.NewWorkerService(), lis)
	fmt.Fprintf(stdout, "rowsgd-node: serving RowSGD worker on %s\n", srv.Addr())
	return srv.Serve()
}
