// Command benchmark is the repository's end-to-end benchmark: five fixed
// workloads over a real process fleet on loopback, timed from outside the
// program, plus a traced run that splits every round into per-layer
// self-times. See README.md in this directory.
//
//	bash benchmark/run.sh --workload col-lr-wide-tcp --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . -seed 1 -out set.json        # one set of all five
//	go run -C benchmark . -seed 1 -selfcheck           # two sets, compared
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type options struct {
	seed      int64
	workload  string
	seconds   float64
	passes    int
	trace     bool
	traceOut  string
	out       string
	selfcheck bool
}

func main() {
	var o options
	var role string
	var trace int
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all for an interleaved set of the five")
	flag.Float64Var(&o.seconds, "seconds", 15, "timed work per workload, in reference-box seconds (sizes the passes)")
	flag.IntVar(&o.passes, "passes", 3, "passes per workload; a metric is the median of its per-pass values")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file as JSON (with -trace 1)")
	flag.StringVar(&o.out, "out", "", "write the full result document to this file as JSON")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets back to back and fail if any end-to-end metric disagrees beyond its bound")
	flag.StringVar(&role, "role", "", "internal: rowsgd-node serves one rowsgd worker on an ephemeral loopback port")
	flag.Parse()
	o.trace = trace != 0

	if role != "" {
		if role != "rowsgd-node" {
			fatal(fmt.Errorf("unknown -role %q", role))
		}
		fatal(serveRowNode(os.Stdout))
	}
	if err := run(o, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// locate finds the benchmark module directory from the working directory:
// either the repository root (run.sh, the driver) or the module itself
// (go run -C benchmark).
func locate() (modDir string, err error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{cwd, filepath.Join(cwd, "benchmark")} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module columnsgd/benchmark\n") {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from benchmark/")
}

// environment is recorded in every output file: a number means nothing
// without the box it came from.
type environment struct {
	Rev        string `json:"rev"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	CPU        string `json:"cpu"`
	// WallClockValid is false when the fleet's three processes share one
	// core: counts are still exact, times say nothing about the code.
	WallClockValid bool `json:"wall_clock_valid"`
}

func readEnvironment(root string) environment {
	env := environment{
		Rev: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), WallClockValid: runtime.NumCPU() >= 2,
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Rev = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's outcome over a set.
type workloadResult struct {
	Name      string                 `json:"name"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Hash      string                 `json:"loss_hash"`
	Samples   int                    `json:"latency_samples"`
	Problems  []string               `json:"problems,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	PassWall  []float64              `json:"pass_wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	// PerPass holds each pass's own value of every end-to-end metric, for
	// the quartiles -selfcheck prints.
	PerPass map[string][]float64 `json:"per_pass,omitempty"`
}

// document is what -out writes.
type document struct {
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Passes    int              `json:"passes"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

// traceDocument is what -trace-out writes: every traced pass's spans.
type traceDocument struct {
	Env    environment       `json:"env"`
	Seed   int64             `json:"seed"`
	Traces map[string][]span `json:"traces"` // by workload
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(o options, stdout io.Writer) error {
	modDir, err := locate()
	if err != nil {
		return err
	}
	root := filepath.Dir(modDir)
	var ws []workload
	if o.workload == "all" {
		ws = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		ws = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.passes < 1 || o.seconds <= 0 {
		return errors.New("-passes and -seconds must be positive")
	}
	env := readEnvironment(root)
	if !env.WallClockValid {
		fmt.Fprintln(os.Stderr, "benchmark: nproc < 2: master and workers share one core, wall-clock metrics are not valid; counts are")
		if o.selfcheck {
			return errors.New("-selfcheck compares wall-clock metrics and needs nproc >= 2")
		}
	}

	fl, err := newFleet(filepath.Join(root, ".bench_build"))
	if err != nil {
		return err
	}
	defer fl.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fl.close()
		fmt.Fprintf(os.Stderr, "benchmark: %v: fleet stopped\n", s)
		os.Exit(130)
	}()
	if err := fl.build(modDir); err != nil {
		return err
	}

	sets := 1
	if o.selfcheck {
		sets = 2
	}
	docs := make([]document, sets)
	traces := traceDocument{Env: env, Seed: o.seed, Traces: make(map[string][]span)}
	for s := range docs {
		results, err := runSet(ws, o, fl, traces.Traces)
		if err != nil {
			return err
		}
		docs[s] = document{Env: env, Seed: o.seed, Seconds: o.seconds, Passes: o.passes, Trace: o.trace, Workloads: results}
		printTable(stdout, docs[s])
	}
	if o.out != "" {
		if err := writeJSON(o.out, docs[len(docs)-1]); err != nil {
			return err
		}
	}
	if o.trace && o.traceOut != "" {
		if err := writeJSON(o.traceOut, traces); err != nil {
			return err
		}
	}
	if o.selfcheck {
		if !compareSets(stdout, docs[0], docs[1]) {
			fl.close()
			os.Exit(2)
		}
		return nil
	}
	if len(ws) == 1 {
		// The driver's contract: the last line of stdout is one object.
		r := docs[0].Workloads[0]
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return nil
}

// runPass runs one pass of one workload and attributes memory to it. A
// training pass hands back its still-open fleet, which the caller closes.
func runPass(in *inputs, sz sizing, fl *fleet, host hosting, rec *recorder) (*passResult, *opened, error) {
	mem := startMasterRSS()
	t0 := time.Now()
	var (
		res *passResult
		o   *opened
		err error
	)
	if in.w.Kind == serving {
		res, o, err = runServePass(in, sz, fl, host, rec)
	} else {
		res, o, err = runTrainPass(in, sz, fl, host, rec)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", in.w.Name, err)
	}
	res.PassWall = time.Since(t0).Seconds()
	self, err := mem.growth()
	if err != nil {
		res.problem("master rss: %v", err)
	}
	res.RSS = float64(self+res.WorkerRSS) / (1 << 20)
	return res, o, nil
}

// runSet measures every workload in ws once: o.passes interleaved passes
// each, or with -trace one measured and one traced pass each.
func runSet(ws []workload, o options, fl *fleet, spans map[string][]span) ([]workloadResult, error) {
	ins := make([]*inputs, len(ws))
	for i, w := range ws {
		in, err := generate(w, o.seed, fl.work)
		if err != nil {
			return nil, fmt.Errorf("%s: generate inputs: %w", w.Name, err)
		}
		ins[i] = in
	}
	results := make([]workloadResult, len(ws))
	if o.trace {
		for i, in := range ins {
			r, sp, err := runTraced(in, o, fl)
			if err != nil {
				return nil, err
			}
			results[i], spans[in.w.Name] = r, sp
		}
		return results, nil
	}
	passes := make([][]*passResult, len(ws))
	for p := 0; p < o.passes; p++ {
		for i, in := range ins {
			res, op, err := runPass(in, in.w.size(o.seconds, o.passes), fl, hostProcs, nil)
			if err != nil {
				return nil, err
			}
			op.close()
			passes[i] = append(passes[i], res)
		}
	}
	for i, w := range ws {
		results[i] = summarize(w, passes[i])
	}
	return results, nil
}

// summarize folds a workload's passes into its end-to-end metrics, each
// the median of its per-pass values. A void pass (the load generator, not
// the system, was late) is checked like any other but lends no timings.
func summarize(w workload, passes []*passResult) workloadResult {
	r := workloadResult{Name: w.Name, Hash: passes[0].Hash,
		Metrics: make(map[string]metricValue), PerPass: make(map[string][]float64)}
	var timed []*passResult
	for i, p := range passes {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		r.PassWall = append(r.PassWall, p.PassWall)
		for _, msg := range p.Problems {
			r.Problems = append(r.Problems, fmt.Sprintf("pass %d: %s", i, msg))
		}
		if p.Hash != r.Hash {
			r.Problems = append(r.Problems, fmt.Sprintf("pass %d: output hash %s differs from pass 0's %s", i, p.Hash, r.Hash))
		}
		if p.Void != "" {
			r.Notes = append(r.Notes, fmt.Sprintf("pass %d void: %s", i, p.Void))
			continue
		}
		timed = append(timed, p)
		r.Samples += len(p.Lat)
	}
	if len(timed) == 0 {
		r.Problems = append(r.Problems, "every pass was void")
	}
	r.Correct = len(r.Problems) == 0 && r.Failed == 0

	per := map[string]func(*passResult) float64{
		"setup_s":              func(p *passResult) float64 { return p.Setup },
		"rows_per_s":           func(p *passResult) float64 { return p.Units / p.UnitsWall },
		"round_p50_ms":         func(p *passResult) float64 { return ms(quantile(sorted(p.Lat), 0.50)) },
		"round_p99_ms":         func(p *passResult) float64 { return ms(quantile(sorted(p.Lat), 0.99)) },
		"time_to_target_s":     func(p *passResult) float64 { return p.ToTarget },
		"wire_bytes_per_round": func(p *passResult) float64 { return p.WireBytes },
		"peak_rss_mb":          func(p *passResult) float64 { return p.RSS },
	}
	for _, m := range endToEnd {
		for _, p := range timed {
			r.PerPass[m.Name] = append(r.PerPass[m.Name], per[m.Name](p))
		}
		v := median(r.PerPass[m.Name])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Correct = false // already explained in Problems (failed pass, target not reached)
			v = 0
		}
		r.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return r
}

// runTraced produces a workload's per-layer metrics: one measured pass on
// the real fleet, one traced pass, then the micro-probes. Every pass must
// produce the measured pass's output hash, which also proves that the
// hand-built core.Config equals the public API's.
func runTraced(in *inputs, o options, fl *fleet) (workloadResult, []span, error) {
	w := in.w
	// Both passes are the size of a measured run's single pass.
	sz := w.size(o.seconds, o.passes)
	base, op, err := runPass(in, sz, fl, hostProcs, nil)
	if err != nil {
		return workloadResult{}, nil, err
	}
	op.close()
	// A traced pass hosts the workers in this process, which by itself
	// changes the speed (no cross-process scheduling). The cost of tracing
	// is therefore taken against an untraced pass hosted the same way.
	// col-fm-local is in-process already, and the server of serve-lr-http
	// stays a real process whose requests alone are spanned.
	host, plain := hostInProc, base
	if w.Kind == serving {
		host = hostProcs
	} else if !w.InProcess {
		if plain, op, err = runPass(in, sz, fl, hostInProc, nil); err != nil {
			return workloadResult{}, nil, err
		}
		op.close()
	}
	rec := newRecorder(numWorkers)
	tp, op, err := runPass(in, sz, fl, host, rec)
	if err != nil {
		return workloadResult{}, nil, err
	}
	defer op.close()
	r := workloadResult{Name: w.Name, Hash: base.Hash, Samples: len(tp.Lat), Metrics: make(map[string]metricValue)}
	passes := []*passResult{base, tp}
	names := []string{"measured", "traced"}
	if plain != base {
		passes, names = append(passes, plain), append(names, "untraced in-process")
	}
	for i, p := range passes {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		r.PassWall = append(r.PassWall, p.PassWall)
		for _, msg := range p.Problems {
			r.Problems = append(r.Problems, fmt.Sprintf("%s pass: %s", names[i], msg))
		}
		if p.Hash != base.Hash {
			r.Problems = append(r.Problems, fmt.Sprintf("%s pass hash %s differs from the measured pass's %s", names[i], p.Hash, base.Hash))
		}
	}

	var lm layerMetrics
	if r.Failed == 0 {
		if w.Kind == serving {
			lm, err = probeServing(in, tp)
		} else {
			st := analyze(rec.spans, numWorkers)
			for i, a := range st.Rounds {
				if math.Abs(a.accounted()-a.Round) > 0.02*a.Round {
					r.Problems = append(r.Problems, fmt.Sprintf("round %d: span self-times cover %.1f%% of the round", i, 100*a.accounted()/a.Round))
					break
				}
			}
			lm, err = probeTraining(in, op, rec, st, tp)
		}
		if err != nil {
			return workloadResult{}, nil, fmt.Errorf("%s: layer probes: %w", w.Name, err)
		}
		plainRate, tracedRate := plain.Units/plain.UnitsWall, tp.Units/tp.UnitsWall
		lm["trace.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	}
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
	for _, m := range perLayer {
		r.Metrics[m.Name] = metricValue{lm[m.Name], m.Unit}
	}
	return r, rec.spans, nil
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, d document) {
	env := d.Env
	fmt.Fprintf(w, "# rev %s  %s  nproc %d  GOMAXPROCS %d  kernel %s  cpu %q  seed %d  seconds %g  passes %d\n",
		env.Rev, env.GoVersion, env.NProc, env.GOMAXPROCS, env.Kernel, env.CPU, d.Seed, d.Seconds, d.Passes)
	defs := endToEnd
	if d.Trace {
		defs = perLayer
	}
	for _, r := range d.Workloads {
		fmt.Fprintf(w, "%s  correct=%v attempted=%d failed=%d samples=%d hash=%.12s pass_wall_s=%.2f\n",
			r.Name, r.Correct, r.Attempted, r.Failed, r.Samples, r.Hash, r.PassWall)
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  ! %s\n", p)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  ~ %s\n", n)
		}
		if per := r.Samples / max(len(r.PassWall), 1); !d.Trace && !tailSupported(per, 0.99) {
			fmt.Fprintf(w, "  ~ round_p99_ms rests on %d samples a pass; fewer than ten lie beyond it\n", per)
		}
		for _, m := range defs {
			fmt.Fprintf(w, "  %-30s %16.6g %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
		}
	}
}

// compareSets prints, for every workload and end-to-end metric, both
// sets' values, their relative gap and the quartiles of the per-pass
// values, and reports whether every gap is inside the metric's bound.
func compareSets(w io.Writer, a, b document) bool {
	ok := true
	fmt.Fprintf(w, "# selfcheck: two sets of the same code\n")
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %8s %8s   %s\n", "workload", "metric", "set 1", "set 2", "gap", "bound", "per-pass q1 / median / q3")
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		if !ra.Correct || !rb.Correct || ra.Hash != rb.Hash {
			fmt.Fprintf(w, "%-18s FAILED: correct=%v/%v hash %.12s/%.12s\n", ra.Name, ra.Correct, rb.Correct, ra.Hash, rb.Hash)
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			gap := (vb - va) / va
			pool := sorted(append(append([]float64(nil), ra.PerPass[m.Name]...), rb.PerPass[m.Name]...))
			verdict := ""
			if math.Abs(gap) > m.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-22s %14.6g %14.6g %+7.2f%% %7.0f%%   %.6g / %.6g / %.6g%s\n",
				ra.Name, m.Name, va, vb, 100*gap, 100*m.Bound,
				quantile(pool, 0.25), quantile(pool, 0.5), quantile(pool, 0.75), verdict)
		}
	}
	return ok
}
