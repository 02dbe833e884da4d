package main

import (
	"sort"
	"sync"
	"time"

	"columnsgd/internal/cluster"
	"columnsgd/internal/wire"
)

// span is one timed interval at a layer boundary. Three kinds exist:
//
//	round   wraps one Step (or one served request); the root
//	call    one cluster.Client.Call to one worker; child of the round
//	        during which it started
//	handle  the worker-side Service.Dispatch of that call; child of it
//
// All three are stamped by one process on one monotonic clock: in a
// traced pass the workers are hosted in the benchmark process behind real
// loopback sockets.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Round  int    `json:"round"`  // negative during warm-up
	Worker int    `json:"worker"` // -1 for the master
	Method string `json:"method,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// capture is the first timed request/response pair seen for a method,
// framed as the transport frames it, kept for the codec probes.
type capture struct {
	req, resp   []byte
	args, reply interface{}
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	codec wire.Codec

	mu        sync.Mutex
	spans     []span
	round     int // current round number
	roundSpan int // its span index; -1 outside the recorded rounds
	captures  map[string]*capture

	handles []handleSlot // per worker: the dispatch of the call in flight
}

type handleSlot struct {
	mu         sync.Mutex
	start, end int64
	method     string
	set        bool
}

func newRecorder(workers int) *recorder {
	return &recorder{
		epoch: time.Now(), codec: wire.Default, roundSpan: -1,
		captures: make(map[string]*capture), handles: make([]handleSlot, workers),
		spans: make([]span, 0, 1<<16),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginRound opens the root span of round n; endRound closes it. The
// round stays current until the next one begins, so a pipelined call that
// starts in the gap between two Steps is still recorded.
func (r *recorder) beginRound(n int) {
	start := r.now()
	r.mu.Lock()
	r.round = n
	r.roundSpan = len(r.spans)
	r.spans = append(r.spans, span{Name: "round", Start: start, Parent: -1, Round: n, Worker: -1})
	r.mu.Unlock()
}

func (r *recorder) endRound() {
	end := r.now()
	r.mu.Lock()
	r.spans[r.roundSpan].End = end
	r.mu.Unlock()
}

// finish stops recording: evaluation traffic after the last round is not
// part of any round.
func (r *recorder) finish() {
	r.mu.Lock()
	r.roundSpan = -1
	r.mu.Unlock()
}

// addRequestSpan records one served request as a root span; the serving
// workload has no calls or handles the benchmark can see from outside.
func (r *recorder) addRequestSpan(start, end time.Time, n, conn int) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: "round", Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Parent: -1, Round: n, Worker: conn})
	r.mu.Unlock()
}

// tracedClient decorates a cluster.Client with a call span per Call.
type tracedClient struct {
	inner  cluster.Client
	rec    *recorder
	worker int
}

func (c *tracedClient) Call(method string, args, reply interface{}) error {
	r := c.rec
	r.mu.Lock()
	parent, round := r.roundSpan, r.round
	r.mu.Unlock()
	start := r.now()
	err := c.inner.Call(method, args, reply)
	end := r.now()
	if parent < 0 {
		return err // set-up and evaluation traffic
	}

	h := &r.handles[c.worker]
	h.mu.Lock()
	hs, he, ok := h.start, h.end, h.set && h.method == method
	h.set = false
	h.mu.Unlock()

	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: "call", Start: start, End: end, Parent: parent, Round: round, Worker: c.worker, Method: method})
	if ok {
		r.spans = append(r.spans, span{Name: "handle", Start: hs, End: he, Parent: idx, Round: round, Worker: c.worker, Method: method})
	}
	_, seen := r.captures[method]
	if !seen && round >= 0 && err == nil {
		r.captures[method] = nil // claim it; frame outside the lock
	}
	r.mu.Unlock()
	if !seen && round >= 0 && err == nil {
		cp := &capture{args: args, reply: reply}
		cp.req, _ = cluster.EncodeRequestFrame(r.codec, method, args)
		cp.resp, _ = cluster.EncodeResponseFrame(r.codec, reply, "")
		r.mu.Lock()
		r.captures[method] = cp
		r.mu.Unlock()
	}
	return err
}

func (c *tracedClient) Bytes() int64    { return c.inner.Bytes() }
func (c *tracedClient) Messages() int64 { return c.inner.Messages() }
func (c *tracedClient) Close() error    { return c.inner.Close() }

// wrapService re-registers methods around inner.Dispatch so that every
// dispatch on this worker leaves a handle interval for the call in flight
// (calls to one worker are serialized, so there is exactly one).
func (r *recorder) wrapService(worker int, inner *cluster.Service, methods []string) *cluster.Service {
	svc := cluster.NewService()
	h := &r.handles[worker]
	for _, m := range methods {
		m := m
		svc.Register(m, func(args interface{}) (interface{}, error) {
			start := r.now()
			v, err := inner.Dispatch(m, args)
			end := r.now()
			h.mu.Lock()
			h.start, h.end, h.method, h.set = start, end, m, true
			h.mu.Unlock()
			return v, err
		})
	}
	return svc
}

func (r *recorder) capture(method string) *capture {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captures[method]
}

// interval is a half-open time range in recorder nanoseconds.
type interval struct{ lo, hi int64 }

// clip returns iv ∩ [lo, hi) and whether it is non-empty.
func (iv interval) clip(lo, hi int64) (interval, bool) {
	if iv.lo < lo {
		iv.lo = lo
	}
	if iv.hi > hi {
		iv.hi = hi
	}
	return iv, iv.hi > iv.lo
}

// unionLen returns the total length covered by ivs.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// roundAccount splits one round span into self-times, in nanoseconds:
//
//	round = MasterSelf + Transport + Handle + Wait
//
// MasterSelf is the part of the round no call covers (plan, aggregate,
// pricing, trace append). Transport and Handle are the self-times of the
// call and handle spans on the critical lane, the worker whose calls
// cover most of the round. Wait is the time the master waited on another
// worker while the critical lane was idle. A call that straddles a round
// boundary (the pipelined prefetch) counts only for the part inside.
type roundAccount struct {
	Round                               float64
	MasterSelf, Transport, Handle, Wait float64
}

func (a roundAccount) accounted() float64 { return a.MasterSelf + a.Transport + a.Handle + a.Wait }

// traceStats is what the span tree says about the timed rounds.
type traceStats struct {
	Rounds    []roundAccount
	Transport []float64            // per call: call − handle
	Handle    map[string][]float64 // per method: handle durations
	Skew      []float64            // per fan-out: last − first call end
}

// analyze computes self-times for every round ≥ 0.
func analyze(spans []span, workers int) traceStats {
	st := traceStats{Handle: make(map[string][]float64)}
	type callRec struct {
		iv, handle interval
		hasHandle  bool
		worker     int
	}
	var calls []callRec
	handleOf := make(map[int]span)
	for _, s := range spans {
		if s.Name == "handle" {
			handleOf[s.Parent] = s
		}
	}
	ends := make(map[string][][]int64) // method → worker → call ends in order
	for i, s := range spans {
		if s.Name != "call" {
			continue
		}
		c := callRec{iv: interval{s.Start, s.End}, worker: s.Worker}
		if h, ok := handleOf[i]; ok {
			c.handle, c.hasHandle = interval{h.Start, h.End}, true
			if s.Round >= 0 {
				st.Transport = append(st.Transport, s.dur()-h.dur())
				st.Handle[s.Method] = append(st.Handle[s.Method], h.dur())
			}
		}
		calls = append(calls, c)
		if s.Round >= 0 {
			if ends[s.Method] == nil {
				ends[s.Method] = make([][]int64, workers)
			}
			ends[s.Method][s.Worker] = append(ends[s.Method][s.Worker], s.End)
		}
	}
	// The k-th call of a method on each worker belongs to the same fan-out.
	for _, perWorker := range ends {
		n := len(perWorker[0])
		for _, e := range perWorker {
			if len(e) < n {
				n = len(e)
			}
		}
		for k := 0; k < n; k++ {
			lo, hi := perWorker[0][k], perWorker[0][k]
			for _, e := range perWorker {
				if e[k] < lo {
					lo = e[k]
				}
				if e[k] > hi {
					hi = e[k]
				}
			}
			st.Skew = append(st.Skew, float64(hi-lo))
		}
	}

	sort.Slice(calls, func(i, j int) bool { return calls[i].iv.lo < calls[j].iv.lo })
	first := 0
	for _, s := range spans {
		if s.Name != "round" || s.Round < 0 || s.End == 0 {
			continue
		}
		// Rounds are disjoint and ordered, calls sorted by start: calls
		// that ended before this round can never matter again.
		for first < len(calls) && calls[first].iv.hi <= s.Start {
			first++
		}
		var all []interval
		busy := make([]int64, workers)
		handle := make([]int64, workers)
		for _, c := range calls[first:] {
			if c.iv.lo >= s.End {
				break
			}
			iv, ok := c.iv.clip(s.Start, s.End)
			if !ok {
				continue
			}
			all = append(all, iv)
			busy[c.worker] += iv.hi - iv.lo
			if c.hasHandle {
				if hv, ok := c.handle.clip(iv.lo, iv.hi); ok {
					handle[c.worker] += hv.hi - hv.lo
				}
			}
		}
		covered := unionLen(all)
		crit := 0
		for w := range busy {
			if busy[w] > busy[crit] {
				crit = w
			}
		}
		st.Rounds = append(st.Rounds, roundAccount{
			Round:      s.dur(),
			MasterSelf: float64(s.End - s.Start - covered),
			Transport:  float64(busy[crit] - handle[crit]),
			Handle:     float64(handle[crit]),
			Wait:       float64(covered - busy[crit]),
		})
	}
	return st
}
