package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func startTCPWorker(t *testing.T, worker int) (*Server, string) {
	t.Helper()
	svc, err := echoService(worker)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, lis)
	go srv.Serve() //nolint:errcheck // exits on Close
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

func TestTCPBasicCall(t *testing.T) {
	_, addr := startTCPWorker(t, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoReply
	if err := c.Call("echo", &echoArgs{Text: "net", N: 7}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Text != "net" || reply.Sum != 10 {
		t.Fatalf("reply %+v", reply)
	}
	if c.Bytes() <= 0 || c.Messages() != 2 {
		t.Fatalf("traffic %d/%d", c.Bytes(), c.Messages())
	}
}

func TestTCPHandlerError(t *testing.T) {
	_, addr := startTCPWorker(t, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("fail", &echoArgs{}, nil); err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("err = %v", err)
	}
	// Connection survives handler errors.
	var reply echoReply
	if err := c.Call("echo", &echoArgs{N: 1}, &reply); err != nil {
		t.Fatal(err)
	}
}

func TestTCPMultipleClientsAndCalls(t *testing.T) {
	_, addr := startTCPWorker(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				var reply echoReply
				if err := c.Call("echo", &echoArgs{N: i}, &reply); err != nil {
					t.Error(err)
					return
				}
				if reply.Sum != i+1 {
					t.Errorf("sum = %d, want %d", reply.Sum, i+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPServerCloseBreaksClients(t *testing.T) {
	srv, addr := startTCPWorker(t, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", &echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	err = c.Call("echo", &echoArgs{}, nil)
	if !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("err after server close = %v", err)
	}
}

func TestTCPClientCloseIdempotent(t *testing.T) {
	_, addr := startTCPWorker(t, 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := c.Call("echo", &echoArgs{}, nil); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("call after close = %v", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	// The large payload spans several growth steps past frameChunk.
	large := make([]byte, 3*frameChunk+5)
	for i := range large {
		large[i] = byte(i * 7)
	}
	for _, payload := range [][]byte{[]byte("hello frames"), large} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame did not round trip", len(payload))
		}
	}
}

func TestFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("huge frame accepted")
	}
}

// TestReadFrameAllocatesOnlyWhatArrives: a header claiming maxFrame
// followed by 10 bytes and EOF is a truncated frame, and reading it must
// not allocate the gigabyte the header claimed.
func TestReadFrameAllocatesOnlyWhatArrives(t *testing.T) {
	data := binary.BigEndian.AppendUint32(nil, maxFrame)
	data = append(data, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want an ErrBadFrame truncation", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("reading 14 bytes allocated %d bytes", grew)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

// The local and TCP transports must be behaviourally interchangeable.
func TestTransportEquivalence(t *testing.T) {
	local, err := NewLocal(1, echoService)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startTCPWorker(t, 0)
	tcp, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	for _, c := range []Client{local.Clients()[0], tcp} {
		var out []float64
		if err := c.Call("floats", []float64{1, 2.5, -3}, &out); err != nil {
			t.Fatal(err)
		}
		want := []float64{2, 5, -6}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("floats[%d] = %v", i, out[i])
			}
		}
	}
}

// newLoopbackListener is shared by tests and benchmarks.
func newLoopbackListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
