package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"columnsgd/internal/wire"
)

type echoArgs struct {
	Text string
	N    int
}

type echoReply struct {
	Text string
	Sum  int
}

func init() {
	gob.Register(&echoArgs{})
	gob.Register(&echoReply{})
	gob.Register([]float64(nil))
}

func echoService(worker int) (*Service, error) {
	svc := NewService()
	svc.Register("echo", func(args interface{}) (interface{}, error) {
		a, ok := args.(*echoArgs)
		if !ok {
			return nil, fmt.Errorf("bad args type %T", args)
		}
		return &echoReply{Text: a.Text, Sum: a.N + worker}, nil
	})
	svc.Register("fail", func(args interface{}) (interface{}, error) {
		return nil, errors.New("handler exploded")
	})
	svc.Register("nilreply", func(args interface{}) (interface{}, error) {
		return nil, nil
	})
	svc.Register("floats", func(args interface{}) (interface{}, error) {
		in := args.([]float64)
		out := make([]float64, len(in))
		for i, v := range in {
			out[i] = v * 2
		}
		return out, nil
	})
	return svc, nil
}

func TestLocalBasicCall(t *testing.T) {
	l, err := NewLocal(3, echoService)
	if err != nil {
		t.Fatal(err)
	}
	clients := l.Clients()
	for i, c := range clients {
		var reply echoReply
		if err := c.Call("echo", &echoArgs{Text: "hi", N: 10}, &reply); err != nil {
			t.Fatal(err)
		}
		if reply.Text != "hi" || reply.Sum != 10+i {
			t.Fatalf("worker %d reply %+v", i, reply)
		}
		if c.Bytes() <= 0 || c.Messages() != 2 {
			t.Fatalf("worker %d traffic: %d bytes, %d msgs", i, c.Bytes(), c.Messages())
		}
	}
	msgs, bytes := l.TotalTraffic()
	if msgs != 6 || bytes <= 0 {
		t.Fatalf("total traffic %d msgs %d bytes", msgs, bytes)
	}
}

func TestLocalRejectsZeroWorkers(t *testing.T) {
	if _, err := NewLocal(0, echoService); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestLocalFactoryError(t *testing.T) {
	_, err := NewLocal(2, func(w int) (*Service, error) {
		if w == 1 {
			return nil, errors.New("no disk")
		}
		return NewService(), nil
	})
	if err == nil || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalHandlerError(t *testing.T) {
	l, _ := NewLocal(1, echoService)
	c := l.Clients()[0]
	err := c.Call("fail", &echoArgs{}, nil)
	if err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Call("nosuch", &echoArgs{}, nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestLocalNilReply(t *testing.T) {
	l, _ := NewLocal(1, echoService)
	c := l.Clients()[0]
	if err := c.Call("nilreply", &echoArgs{}, nil); err != nil {
		t.Fatal(err)
	}
	var reply echoReply
	if err := c.Call("nilreply", &echoArgs{}, &reply); err != nil {
		t.Fatal(err)
	}
}

func TestLocalIsolation(t *testing.T) {
	// Worker mutations of decoded args must not affect the master's copy.
	svcFactory := func(worker int) (*Service, error) {
		svc := NewService()
		svc.Register("mutate", func(args interface{}) (interface{}, error) {
			in := args.([]float64)
			for i := range in {
				in[i] = -1
			}
			return nil, nil
		})
		return svc, nil
	}
	l, _ := NewLocal(1, svcFactory)
	c := l.Clients()[0]
	mine := []float64{1, 2, 3}
	if err := c.Call("mutate", mine, nil); err != nil {
		t.Fatal(err)
	}
	if mine[0] != 1 {
		t.Fatal("worker mutation leaked into master state")
	}
}

func TestLocalFailRestart(t *testing.T) {
	l, _ := NewLocal(2, echoService)
	clients := l.Clients()
	l.Fail(1)
	err := clients[1].Call("echo", &echoArgs{}, nil)
	if !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("err = %v, want ErrWorkerDown", err)
	}
	// Worker 0 unaffected.
	if err := clients[0].Call("echo", &echoArgs{N: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Restart(1); err != nil {
		t.Fatal(err)
	}
	var reply echoReply
	if err := clients[1].Call("echo", &echoArgs{N: 5}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Sum != 6 {
		t.Fatalf("reply after restart %+v", reply)
	}
}

func TestLocalConcurrentBroadcast(t *testing.T) {
	const k = 8
	l, _ := NewLocal(k, echoService)
	clients := l.Clients()
	var wg sync.WaitGroup
	for round := 0; round < 20; round++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs := Broadcast(clients, "echo", &echoArgs{N: r},
				func(w int) interface{} { return &echoReply{} })
			if i, err := FirstError(errs); err != nil {
				t.Errorf("round %d worker %d: %v", r, i, err)
			}
		}(round)
	}
	wg.Wait()
}

func TestBroadcastCollectsErrors(t *testing.T) {
	l, _ := NewLocal(3, echoService)
	l.Fail(1)
	errs := Broadcast(l.Clients(), "echo", &echoArgs{}, nil)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy workers errored: %v", errs)
	}
	i, err := FirstError(errs)
	if i != 1 || !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("FirstError = %d, %v", i, err)
	}
	if i, err := FirstError([]error{nil, nil}); i != -1 || err != nil {
		t.Fatal("FirstError on clean slice")
	}
}

func TestStoreReplyErrors(t *testing.T) {
	if err := storeReply(42, "x"); err == nil {
		t.Error("non-pointer reply accepted")
	}
	var s string
	if err := storeReply(&s, 42); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := storeReply(&s, "ok"); err != nil || s != "ok" {
		t.Errorf("valid store failed: %v", err)
	}
	var nilPtr *string
	if err := storeReply(nilPtr, "x"); err == nil {
		t.Error("nil pointer accepted")
	}
}

func TestEncodeRejectsUnregistered(t *testing.T) {
	// A type with no wire form rides the gob fallback, which must refuse
	// a concrete type gob was never told about.
	type unregistered struct{ X int }
	if _, err := EncodeRequestFrame(wire.Default, "m", unregistered{1}); err == nil {
		t.Fatal("unregistered concrete type in the gob fallback accepted")
	}
}

func TestServiceReRegister(t *testing.T) {
	svc := NewService()
	svc.Register("m", func(interface{}) (interface{}, error) { return 1, nil })
	svc.Register("m", func(interface{}) (interface{}, error) { return 2, nil })
	v, err := svc.Dispatch("m", nil)
	if err != nil || v.(int) != 2 {
		t.Fatalf("dispatch = %v, %v", v, err)
	}
}
