package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	columnsgd "columnsgd"
	"columnsgd/internal/dataset"
	"columnsgd/internal/vec"
)

const (
	serveMaxWait   = 200 * time.Microsecond // colsgd-serve -max-wait; see README
	serveTimeout   = 5 * time.Second        // per HTTP request
	marginTol      = 1e-9
	lateLimitMS    = 1.0 // open-loop generator lateness p99 above this voids the pass
	checkpointIter = 200
)

// serveInputs is the serving workload's generated input: a checkpoint
// trained during set-up, request bodies, and the margin every instance
// must come back with.
type serveInputs struct {
	model   string   // checkpoint path
	bodies  [][]byte // pre-encoded /predict requests
	rows    [][]vec.Sparse
	margins [][]float64 // local scoring of the checkpoint, per body per instance
	saveDur time.Duration
}

type wireInstance struct {
	Indices []int32   `json:"indices"`
	Values  []float64 `json:"values"`
}

func generateServe(w workload, seed int64, dir string) (*serveInputs, error) {
	ds, err := dataset.Generate(w.spec(seed))
	if err != nil {
		return nil, err
	}
	pub, err := publicDataset(ds)
	if err != nil {
		return nil, err
	}
	res, err := columnsgd.Train(pub, columnsgd.Config{
		Model: columnsgd.ModelKind(w.Model), Workers: numWorkers, BatchSize: w.Batch,
		LearningRate: w.LR, Iterations: checkpointIter, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("train checkpoint: %w", err)
	}
	in := &serveInputs{model: filepath.Join(dir, w.Name+".model")}
	t0 := time.Now()
	if err := res.SaveModel(in.model); err != nil {
		return nil, err
	}
	in.saveDur = time.Since(t0)
	weights, err := columnsgd.LoadModel(in.model)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo+instPerReq <= ds.N(); lo += instPerReq {
		var req struct {
			Instances []wireInstance `json:"instances"`
		}
		rows := make([]vec.Sparse, instPerReq)
		margins := make([]float64, instPerReq)
		for k := range rows {
			rows[k] = ds.Points[lo+k].Features
			req.Instances = append(req.Instances, wireInstance{rows[k].Indices, rows[k].Values})
			margins[k] = rows[k].Dot(weights[0])
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.rows = append(in.rows, rows)
		in.margins = append(in.margins, margins)
	}
	if len(in.bodies) == 0 {
		return nil, fmt.Errorf("serve workload needs at least %d rows", instPerReq)
	}
	return in, nil
}

// servePassExtra carries what only the serving pass measures.
type servePassExtra struct {
	LateP99MS float64
	After     columnsgd.ServeMetrics // /metricz once the pass is over
}

type predictReply struct {
	Predictions []struct {
		Margin float64 `json:"margin"`
	} `json:"predictions"`
}

// caller owns one keep-alive connection.
type caller struct {
	url    string
	client *http.Client
}

func newCaller(addr string) *caller {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &caller{url: "http://" + addr, client: &http.Client{Transport: tr, Timeout: serveTimeout}}
}

func (c *caller) close() { c.client.CloseIdleConnections() }

// predict posts one body and returns the served margins.
func (c *caller) predict(body []byte) ([]float64, error) {
	resp, err := c.client.Post(c.url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // keep the connection reusable
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var r predictReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(r.Predictions))
	for _, p := range r.Predictions {
		out = append(out, p.Margin)
	}
	return out, nil
}

func (c *caller) metricz() (columnsgd.ServeMetrics, error) {
	var m columnsgd.ServeMetrics
	resp, err := c.client.Get(c.url + "/metricz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

func (c *caller) healthy() bool {
	resp, err := c.client.Get(c.url + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// startServer brings the serving process up and returns its address and
// the time from process start to the first 200 on /healthz.
func (in *inputs) startServer(fl *fleet, host hosting, cl *closers) (addr string, pid int, setup time.Duration, err error) {
	t0 := time.Now()
	if host == hostProcs {
		p, err := fl.start(filepath.Join(fl.bin, "colsgd-serve"), "-listen", "127.0.0.1:0",
			"-model", in.srv.model, "-kind", in.w.Model, "-shards", fmt.Sprint(servShards), "-max-wait", serveMaxWait.String())
		if err != nil {
			return "", 0, 0, err
		}
		cl.add(func() { fl.stop(p) })
		addr, pid = p.addr, p.cmd.Process.Pid
	} else {
		srv, err := columnsgd.NewServer(columnsgd.ServeConfig{Model: columnsgd.ModelKind(in.w.Model), Shards: servShards, MaxWait: serveMaxWait})
		if err != nil {
			return "", 0, 0, err
		}
		cl.add(func() { srv.Close() })
		if _, err := srv.LoadModelFile(in.srv.model); err != nil {
			return "", 0, 0, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", 0, 0, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lis) //nolint:errcheck // returns ErrServerClosed on Close
		cl.add(func() { hs.Close() })
		addr = lis.Addr().String()
	}
	probe := newCaller(addr)
	defer probe.close()
	for !probe.healthy() {
		if time.Since(t0) > bannerTimeout {
			return "", 0, 0, fmt.Errorf("colsgd-serve not healthy within %v", bannerTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return addr, pid, time.Since(t0), nil
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// runtime's own timers fire through epoll, whose timeout has millisecond
// granularity: time.Sleep alone puts the generator's lateness p99 at
// 1.07 ms, above the limit that voids a pass.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}

// runServePass drives one serving pass: warm-up, an open loop at the
// workload's fixed rate (phase A, latency from each request's due time),
// then a closed loop with one caller per connection (phase B, throughput).
// The server is stopped again before it returns.
func runServePass(in *inputs, sz sizing, fl *fleet, host hosting, rec *recorder) (*passResult, *opened, error) {
	cl := &closers{}
	defer cl.run()
	addr, pid, setup, err := in.startServer(fl, host, cl)
	if err != nil {
		return nil, nil, err
	}
	o := &opened{setup: setup, addrs: []string{addr}, close: func() {}}
	si := in.srv
	callers := make([]*caller, numConns)
	for i := range callers {
		callers[i] = newCaller(addr)
		cl.add(callers[i].close)
	}
	total := sz.Warm + sz.OpenN + numConns*sz.ClosdN
	res := &passResult{Setup: setup.Seconds(), Attempted: sz.OpenN + numConns*sz.ClosdN, serve: &servePassExtra{}}

	// got[i] holds request i's served margins; nil marks a failure.
	got := make([][]float64, total)
	var failMu sync.Mutex
	fail := func(i int, err error) {
		failMu.Lock()
		res.Failed++
		if len(res.Problems) < 5 {
			res.problem("request %d: %v", i, err)
		}
		failMu.Unlock()
	}
	// send issues request i on caller c and checks it against local scoring.
	send := func(c *caller, i int, counted bool) {
		b := i % len(si.bodies)
		m, err := c.predict(si.bodies[b])
		if err == nil && len(m) != len(si.margins[b]) {
			err = fmt.Errorf("%d predictions for %d instances", len(m), len(si.margins[b]))
		}
		for k := 0; err == nil && k < len(m); k++ {
			if d := math.Abs(m[k] - si.margins[b][k]); !(d <= marginTol) {
				err = fmt.Errorf("instance %d margin %g, local scoring %g", k, m[k], si.margins[b][k])
			}
		}
		if err != nil {
			if counted {
				fail(i, err)
			}
			return
		}
		got[i] = m
	}
	// each runs fn(c, k) once per connection, concurrently.
	each := func(fn func(c *caller, k int)) {
		var wg sync.WaitGroup
		for k, c := range callers {
			wg.Add(1)
			go func(c *caller, k int) {
				defer wg.Done()
				fn(c, k)
			}(c, k)
		}
		wg.Wait()
	}

	each(func(c *caller, k int) {
		for i := k; i < sz.Warm; i += numConns {
			send(c, i, false)
		}
	})
	before, err := callers[0].metricz()
	if err != nil {
		return nil, nil, fmt.Errorf("metricz: %w", err)
	}

	// Phase A. Request j is due at startA + j·interval whatever happened
	// to the requests before it, and connection j mod numConns carries it.
	interval := time.Duration(float64(time.Second) / in.w.OpenRate)
	lat := make([]float64, sz.OpenN)
	late := make([]float64, sz.OpenN)
	startA := time.Now().Add(5 * time.Millisecond)
	each(func(c *caller, k int) {
		free := startA // when this connection could first send
		for j := k; j < sz.OpenN; j += numConns {
			due := startA.Add(time.Duration(j) * interval)
			sleepUntil(due)
			sent := time.Now()
			send(c, sz.Warm+j, true)
			done := time.Now()
			// The generator is late by what it added on top of the due
			// time and of a connection still busy with a slow reply; the
			// latter is the server's doing and stays in the latency.
			if free.After(due) {
				late[j] = float64(sent.Sub(free))
			} else {
				late[j] = float64(sent.Sub(due))
			}
			free = done
			lat[j] = float64(done.Sub(due))
			if rec != nil {
				rec.addRequestSpan(due, done, j, k)
			}
		}
	})
	res.Lat = lat
	res.serve.LateP99MS = ms(quantile(sorted(late), 0.99))

	// Phase B.
	startB := time.Now()
	each(func(c *caller, k int) {
		base := sz.Warm + sz.OpenN + k*sz.ClosdN
		for j := 0; j < sz.ClosdN; j++ {
			send(c, base+j, true)
		}
	})
	wallB := time.Since(startB).Seconds()
	res.Units, res.UnitsWall = float64(numConns*sz.ClosdN*instPerReq), wallB
	res.ToTarget = wallB

	if res.serve.After, err = callers[0].metricz(); err != nil {
		return nil, nil, fmt.Errorf("metricz: %w", err)
	}
	res.WireBytes = float64(res.serve.After.FanoutBytes-before.FanoutBytes) / float64(res.Attempted)

	h := sha256.New()
	var bits [8]byte
	for _, m := range got[sz.Warm:] {
		for _, v := range m {
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v))
			h.Write(bits[:])
		}
	}
	res.Hash = hex.EncodeToString(h.Sum(nil))
	if res.serve.LateP99MS > lateLimitMS {
		res.Void = fmt.Sprintf("open-loop generator ran late: p99 %.3f ms > %.1f ms", res.serve.LateP99MS, lateLimitMS)
	}
	if pid != 0 {
		rss, err := peakRSS(pid)
		if err != nil {
			res.problem("server rss: %v", err)
		}
		res.WorkerRSS = rss
	}
	return res, o, nil
}
