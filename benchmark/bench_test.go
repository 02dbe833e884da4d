package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// tinySizing is a pass small enough for the whole smoke test to finish in
// about two seconds.
var tinySizing = sizing{Warm: 3, Rounds: trailWindow + 10, OpenN: 8, ClosdN: 4}

func tinyFleet(t *testing.T) *fleet {
	t.Helper()
	fl, err := newFleet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.close)
	return fl
}

func shrinkProbes(t *testing.T) {
	t.Helper()
	old := probeBudget
	probeBudget = 100 * time.Microsecond
	t.Cleanup(func() { probeBudget = old })
}

// assertGone fails if anything still listens on addr.
func assertGone(t *testing.T, addr string) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err == nil {
		c.Close()
		t.Errorf("listener %s survived its pass", addr)
	}
}

// TestSmokeAllWorkloads runs a measured-shape pass and a traced pass of
// every workload at tiny scale, hosted in-process, and checks that the two
// agree, that the probes and spec.go name the same per-layer metrics in
// both directions, and that nothing is left behind.
func TestSmokeAllWorkloads(t *testing.T) {
	shrinkProbes(t)
	fl := tinyFleet(t)
	produced := map[string]bool{"trace.overhead_pct": true} // runTraced computes it from two passes
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		return out
	}
	for _, full := range workloads {
		w := full.tiny()
		t.Run(w.Name, func(t *testing.T) {
			in, err := generate(w, 7, fl.work)
			if err != nil {
				t.Fatal(err)
			}
			var passes []*passResult
			var addrs []string
			for i := 0; i < 2; i++ {
				res, op, err := runPass(in, tinySizing, fl, hostInProc, nil)
				if err != nil {
					t.Fatal(err)
				}
				op.close()
				addrs = append(addrs, op.addrs...)
				passes = append(passes, res)
			}
			sum := summarize(w, passes)
			if !sum.Correct {
				t.Fatalf("measured passes incorrect: %v", sum.Problems)
			}
			if got, want := sortedKeys(sum.Metrics), names(endToEnd); !sameSet(got, want) {
				t.Errorf("end-to-end metrics emitted %v, defined %v", got, want)
			}
			for name, m := range sum.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}

			rec := newRecorder(numWorkers)
			tp, op, err := runPass(in, tinySizing, fl, hostInProc, rec)
			if err != nil {
				t.Fatal(err)
			}
			defer op.close()
			addrs = append(addrs, op.addrs...)
			if len(tp.Problems) > 0 || tp.Failed > 0 {
				t.Fatalf("traced pass: %d failed, %v", tp.Failed, tp.Problems)
			}
			if tp.Hash != sum.Hash {
				t.Errorf("traced hash %s, measured hash %s", tp.Hash, sum.Hash)
			}
			var lm layerMetrics
			if w.Kind == serving {
				lm, err = probeServing(in, tp)
			} else {
				lm, err = probeTraining(in, op, rec, analyze(rec.spans, numWorkers), tp)
			}
			if err != nil {
				t.Fatal(err)
			}
			defined := map[string]bool{}
			for _, d := range perLayer {
				defined[d.Name] = true
			}
			for name, v := range lm {
				if !defined[name] {
					t.Errorf("probe emitted %s, which spec.go does not define", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
				if v != 0 {
					produced[name] = true
				}
			}
			op.close()
			for _, a := range addrs {
				assertGone(t, a)
			}
		})
	}
	for _, d := range perLayer {
		if !produced[d.Name] {
			t.Errorf("no workload produced %s", d.Name)
		}
	}
	if n := fl.running(); n != 0 {
		t.Errorf("%d child processes still running", n)
	}
	fl.close()
	if _, err := os.Stat(fl.work); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survived close (err %v)", fl.work, err)
	}
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameSet(a, b []string) bool {
	am := map[string]bool{}
	for _, x := range a {
		am[x] = true
	}
	if len(am) != len(b) {
		return false
	}
	for _, x := range b {
		if !am[x] {
			return false
		}
	}
	return true
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the tables the
// binary emits from: same workloads with the same reasons, same metrics
// with the same units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has {%s %s}", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, d := range want {
			checkName(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, spec.go has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from spec.go's %g", d.Name, d.Bound)
			case bounded && !(d.Bound > 0 && d.Bound <= 0.25):
				t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", d.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract requires setup_s in s, lower is better; got %+v", endToEnd[0])
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %v, want %v", doc.Paths, want)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
}

// TestSpanSelfTimes checks the span tree of a traced pass, pipelined and
// not: every handle lies inside its call, every call was dispatched, and
// each round's self-times add up to the round span within 2 %.
func TestSpanSelfTimes(t *testing.T) {
	fl := tinyFleet(t)
	for _, name := range []string{"col-lr-narrow-tcp", "col-fm-local", "row-mllib-tcp"} {
		full, _ := findWorkload(name)
		w := full.tiny()
		t.Run(name, func(t *testing.T) {
			in, err := generate(w, 11, fl.work)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(numWorkers)
			_, op, err := runPass(in, tinySizing, fl, hostInProc, rec)
			if err != nil {
				t.Fatal(err)
			}
			op.close()

			calls, handles := 0, 0
			for _, s := range rec.spans {
				switch s.Name {
				case "call":
					calls++
				case "handle":
					handles++
					p := rec.spans[s.Parent]
					if p.Name != "call" || p.Worker != s.Worker || p.Method != s.Method {
						t.Fatalf("handle %+v joined to %+v", s, p)
					}
					if s.Start < p.Start || s.End > p.End {
						t.Fatalf("handle [%d,%d] outside its call [%d,%d]", s.Start, s.End, p.Start, p.End)
					}
				}
			}
			if calls == 0 || handles != calls {
				t.Fatalf("%d calls, %d handles", calls, handles)
			}
			st := analyze(rec.spans, numWorkers)
			if len(st.Rounds) != tinySizing.Rounds {
				t.Fatalf("%d rounds analysed, want %d", len(st.Rounds), tinySizing.Rounds)
			}
			for i, a := range st.Rounds {
				for _, part := range []float64{a.MasterSelf, a.Transport, a.Handle, a.Wait} {
					if part < 0 {
						t.Fatalf("round %d: negative self-time in %+v", i, a)
					}
				}
				if math.Abs(a.accounted()-a.Round) > 0.02*a.Round {
					t.Fatalf("round %d: self-times %v sum to %.0f ns, round is %.0f ns", i, a, a.accounted(), a.Round)
				}
				if a.Handle == 0 {
					t.Fatalf("round %d: no worker time on the critical lane: %+v", i, a)
				}
			}
		})
	}
}

// TestIntervalUnion pins the arithmetic the self-times rest on.
func TestIntervalUnion(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},
		{[]interval{{20, 30}, {0, 10}}, 20},
		{[]interval{{0, 30}, {5, 10}, {12, 14}}, 30},
		{[]interval{{0, 10}, {10, 20}}, 20},
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

// TestRealFleetLeavesNothingBehind builds the child binaries and runs two
// workloads against real OS processes, then checks that no child, no
// listener and no scratch file survives. Skipped with -short: it compiles.
func TestRealFleetLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds colsgd-node and colsgd-serve")
	}
	fl := tinyFleet(t)
	if err := fl.build("."); err != nil {
		t.Fatal(err)
	}
	var pids []int
	var addrs []string
	for _, name := range []string{"col-lr-narrow-tcp", "serve-lr-http"} {
		full, _ := findWorkload(name)
		w := full.tiny()
		in, err := generate(w, 5, fl.work)
		if err != nil {
			t.Fatal(err)
		}
		res, op, err := runPass(in, tinySizing, fl, hostProcs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Problems) > 0 || res.Failed > 0 {
			t.Errorf("%s: %d failed, %v", name, res.Failed, res.Problems)
		}
		if res.WorkerRSS == 0 {
			t.Errorf("%s: no worker RSS read", name)
		}
		pids = append(pids, op.pids...)
		addrs = append(addrs, op.addrs...)
		op.close()
	}
	if n := fl.running(); n != 0 {
		t.Errorf("%d children still running", n)
	}
	for _, pid := range pids {
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
			t.Errorf("process %d survived", pid)
		}
	}
	for _, a := range addrs {
		assertGone(t, a)
	}
	fl.close()
	if _, err := os.Stat(fl.work); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survived close", fl.work)
	}
}

// TestWatchdog checks that a stalled pass trips onStall and a live one
// does not.
func TestWatchdog(t *testing.T) {
	fired := make(chan struct{})
	wd := newWatchdog(20*time.Millisecond, func() { close(fired) })
	for i := 0; i < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		wd.beat()
		select {
		case <-fired:
			t.Fatal("watchdog fired while the pass was making progress")
		default:
		}
	}
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a stalled pass")
	}
	wd.stop()
}
