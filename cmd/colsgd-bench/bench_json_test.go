package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, path string, rev string, results []BenchResult) {
	t.Helper()
	data, err := json.Marshal(&BenchReport{Rev: rev, GoVersion: "go-test", CPUs: 1, GOMAXPROCS: 1, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBenchDiffPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeReport(t, oldP, "aaa", []BenchResult{
		{Name: "worker/lr/P1", NsPerIter: 1000},
		{Name: "worker/lr/P4", NsPerIter: 900},
	})
	writeReport(t, newP, "bbb", []BenchResult{
		{Name: "worker/lr/P1", NsPerIter: 1100}, // +10%: inside the 15% band
		{Name: "worker/lr/P4", NsPerIter: 850},
		{Name: "serve/lr/P1", NsPerIter: 50}, // new benchmark: not fatal
	})
	var sb strings.Builder
	if err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb); err != nil {
		t.Fatalf("diff within threshold failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "2 benchmarks within") {
		t.Errorf("summary missing: %q", sb.String())
	}
	if !strings.Contains(sb.String(), "no baseline") {
		t.Errorf("new benchmark not reported: %q", sb.String())
	}
}

func TestBenchDiffFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeReport(t, oldP, "aaa", []BenchResult{{Name: "worker/lr/P1", NsPerIter: 1000}})
	writeReport(t, newP, "bbb", []BenchResult{{Name: "worker/lr/P1", NsPerIter: 1200}}) // +20%
	var sb strings.Builder
	err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb)
	if err == nil {
		t.Fatalf("+20%% regression passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("regression not flagged: %q", sb.String())
	}
	// A looser threshold waves the same pair through.
	sb.Reset()
	if err := run([]string{"-benchdiff", "-old", oldP, "-new", newP, "-threshold", "0.30"}, &sb); err != nil {
		t.Fatalf("diff with -threshold 0.30 failed: %v", err)
	}
}

func TestBenchDiffFailsOnTailRegression(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	// p50 (ns/iter) is flat; only the p99 tail blows out — the shape of a
	// broken hedge path. The quantile gate must catch it.
	writeReport(t, oldP, "aaa", []BenchResult{
		{Name: "serve-load/R2-hedge", NsPerIter: 200_000, P50Ns: 200_000, P99Ns: 1_500_000, P999Ns: 2_000_000},
	})
	writeReport(t, newP, "bbb", []BenchResult{
		{Name: "serve-load/R2-hedge", NsPerIter: 200_000, P50Ns: 200_000, P99Ns: 10_500_000, P999Ns: 11_000_000},
	})
	var sb strings.Builder
	err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb)
	if err == nil {
		t.Fatalf("7x p99 regression passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "ns/p99") || !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("tail regression not flagged: %q", sb.String())
	}
	// Reports without quantiles (the pre-quantile format) still diff fine.
	sb.Reset()
	writeReport(t, oldP, "aaa", []BenchResult{{Name: "serve-load/R2-hedge", NsPerIter: 200_000}})
	if err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb); err != nil {
		t.Fatalf("diff against quantile-free baseline failed: %v\n%s", err, sb.String())
	}
}

func TestBenchDiffFailsOnMigrationBytesRegression(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	// Wall clock is flat; the rebalance just ships 2x the bytes — the
	// shape of a migration path that started resending whole replicas.
	writeReport(t, oldP, "aaa", []BenchResult{
		{Name: "rebalance/join/P4", NsPerIter: 1000, MigrationBytes: 40_000},
	})
	writeReport(t, newP, "bbb", []BenchResult{
		{Name: "rebalance/join/P4", NsPerIter: 1000, MigrationBytes: 80_000},
	})
	var sb strings.Builder
	err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb)
	if err == nil {
		t.Fatalf("2x migration-bytes regression passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "migration bytes") || !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("migration regression not flagged: %q", sb.String())
	}
	// Byte-free baselines (the pre-rebalance format) still diff fine.
	sb.Reset()
	writeReport(t, oldP, "aaa", []BenchResult{{Name: "rebalance/join/P4", NsPerIter: 1000}})
	if err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb); err != nil {
		t.Fatalf("diff against byte-free baseline failed: %v\n%s", err, sb.String())
	}
}

// TestBenchRebalanceRow pins the row itself: one join, deterministic
// nonzero migration traffic, no dropped rounds — without waiting for the
// full -benchjson suite. It runs the row's job once per check, outside
// the timing loop, since only the integers are asserted.
func TestBenchRebalanceRow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range []int{2, 4} {
		migBytes, err := rebalanceJob(k)
		if err != nil {
			t.Fatalf("P%d: %v", k, err)
		}
		if migBytes <= 0 {
			t.Fatalf("P%d: migration=%d", k, migBytes)
		}
		again, err := rebalanceJob(k)
		if err != nil {
			t.Fatal(err)
		}
		if again != migBytes {
			t.Errorf("P%d migration bytes not deterministic: %d vs %d", k, migBytes, again)
		}
	}
}

func TestLoadGenSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-loadgen", "-requests", "48", "-interval", "100us",
		"-replicas", "2", "-hedge", "500us", "-straggle", "2ms"}, &sb)
	if err != nil {
		t.Fatalf("loadgen failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"replay: go run ./cmd/colsgd-bench -loadgen",
		"ok 48", "failed 0", "p999"} {
		if !strings.Contains(out, want) {
			t.Errorf("loadgen output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadGenChaosSpecRoundTrip(t *testing.T) {
	// The chaos matrix's serve cells print `-loadgen -chaos <spec>` replay
	// lines; the flag must parse the same specs and wire the injector in.
	var sb strings.Builder
	err := run([]string{"-loadgen", "-chaos", "delay=0.5,maxdelay=1ms", "-seed", "7",
		"-requests", "32", "-interval", "100us", "-replicas", "2"}, &sb)
	if err != nil {
		t.Fatalf("loadgen with chaos spec failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "chaos") {
		t.Errorf("chaos counters not reported:\n%s", sb.String())
	}
	if err := run([]string{"-loadgen", "-chaos", "bogus=spec"}, &strings.Builder{}); err == nil {
		t.Error("invalid chaos spec accepted")
	}
}

func TestBenchDiffErrors(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	writeReport(t, a, "aaa", []BenchResult{{Name: "x", NsPerIter: 1}})
	writeReport(t, b, "bbb", []BenchResult{{Name: "y", NsPerIter: 1}})
	if err := run([]string{"-benchdiff", "-old", a, "-new", b}, &strings.Builder{}); err == nil {
		t.Error("disjoint reports accepted")
	}
	if err := run([]string{"-benchdiff", "-old", a}, &strings.Builder{}); err == nil {
		t.Error("missing -new accepted")
	}
	if err := run([]string{"-benchdiff", "-old", filepath.Join(dir, "nope.json"), "-new", b}, &strings.Builder{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBenchDiffFailsOnStatsBytesRegression(t *testing.T) {
	dir := t.TempDir()
	oldP, newP := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	// Wall clock is flat; the solver just needed 2x the statistics to
	// first touch the target loss — the shape of a fatter frame or a
	// convergence regression hiding behind unchanged per-round cost.
	writeReport(t, oldP, "aaa", []BenchResult{
		{Name: "solver/lbfgs-m8", NsPerIter: 1000, StatsBytesToTarget: 50_000},
	})
	writeReport(t, newP, "bbb", []BenchResult{
		{Name: "solver/lbfgs-m8", NsPerIter: 1000, StatsBytesToTarget: 100_000},
	})
	var sb strings.Builder
	err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb)
	if err == nil {
		t.Fatalf("2x stats-bytes-to-target regression passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "stats bytes to target") || !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("stats-bytes regression not flagged: %q", sb.String())
	}
	// Baselines from before the solver rows still diff fine.
	sb.Reset()
	writeReport(t, oldP, "aaa", []BenchResult{{Name: "solver/lbfgs-m8", NsPerIter: 1000}})
	if err := run([]string{"-benchdiff", "-old", oldP, "-new", newP}, &sb); err != nil {
		t.Fatalf("diff against byte-free baseline failed: %v\n%s", err, sb.String())
	}
}

// TestBenchSolverRows pins the solver rows themselves: each reaches the
// target loss with deterministic nonzero statistics traffic, and the
// fatter-round solvers spend fewer bytes to target than per-round SGD —
// without waiting for the full -benchjson suite, and running each job
// once per check, outside the timing loop.
func TestBenchSolverRows(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bytesFor := func(solver string, steps, mem int) int64 {
		t.Helper()
		sb, err := solverJob(solver, steps, mem)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if sb <= 0 {
			t.Fatalf("%s: stats=%d", solver, sb)
		}
		again, err := solverJob(solver, steps, mem)
		if err != nil {
			t.Fatal(err)
		}
		if again != sb {
			t.Fatalf("%s stats bytes not deterministic: %d vs %d", solver, sb, again)
		}
		return sb
	}
	sgd := bytesFor("sgd", 0, 0)
	local := bytesFor("local", 4, 0)
	lbfgs := bytesFor("lbfgs", 0, 8)
	if !(local < sgd) {
		t.Errorf("local-K4 spent %d stats bytes to target, sgd %d — want fewer", local, sgd)
	}
	if !(lbfgs < sgd) {
		t.Errorf("lbfgs-m8 spent %d stats bytes to target, sgd %d — want fewer", lbfgs, sgd)
	}
}
