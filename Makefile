GO ?= go

.PHONY: check build vet test race chaos fuzz bench benchdiff cover fmt benchmod

# The full gate: what CI runs.
check: vet build test race benchmod

build:
	$(GO) build ./...

# benchmod vets and smoke-tests the benchmark/ module. It is a separate
# Go module, so ./... never compiles it, yet it imports internal/
# packages whose APIs a change can break.
benchmod:
	cd benchmark && $(GO) vet . && $(GO) test .

# test runs vet and the formatting gate first and includes the race
# detector: the chaos harness exercises concurrent fault paths that only
# -race can vouch for. The cover gate rides along so a codec change
# cannot silently shed tests. -shuffle=on randomizes test order within
# each package so hidden inter-test state dependencies fail loudly (a
# failure prints the shuffle seed to replay with -shuffle=<seed>).
test: vet fmt cover
	$(GO) test -shuffle=on ./...
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# fmt fails when any file is not gofmt-clean (this includes unsorted
# import blocks, which gofmt canonicalizes within each group).
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suites: the injector's own tests plus
# the top-level differential harness (all five engines under fault
# matrices, golden determinism, replay bit-identity).
chaos:
	$(GO) test -race ./internal/chaos/...
	$(GO) test -race -run 'Chaos|Golden' .

# bench runs the perf-regression micro-benchmark suite (worker hot loop,
# engine step, rowsgd step, serve latency, each per model × parallelism)
# and writes BENCH_<rev>.json for later benchdiff comparison.
REV := $(shell git rev-parse --short HEAD)
bench:
	$(GO) run ./cmd/colsgd-bench -benchjson BENCH_$(REV).json -rev $(REV)

# benchdiff compares two bench reports and exits non-zero when any
# matched benchmark's ns/iter regressed by more than 15%:
#   make benchdiff OLD=BENCH_aaa.json NEW=BENCH_bbb.json
benchdiff:
	@test -n "$(OLD)" -a -n "$(NEW)" || (echo "usage: make benchdiff OLD=a.json NEW=b.json" && exit 2)
	$(GO) run ./cmd/colsgd-bench -benchdiff -old $(OLD) -new $(NEW)

# fuzz gives each transport fuzzer a short live budget on top of the
# checked-in corpus (which plain `go test` always replays).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRequestFrame -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeResponseFrame -fuzztime=10s ./internal/cluster/
	$(GO) test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzZeroCopyDecode -fuzztime=10s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzSolverFrame -fuzztime=10s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzStalenessClock -fuzztime=10s ./internal/ssp/
	$(GO) test -run=^$$ -fuzz=FuzzAdmission -fuzztime=10s ./internal/serve/
	$(GO) test -run=^$$ -fuzz=FuzzMigrationPlan -fuzztime=10s ./internal/membership/

# cover reports statement coverage everywhere and enforces floors on
# internal/wire — the one package whose bugs corrupt bytes silently
# instead of failing loudly — and internal/vec, the numeric kernels both
# precisions' hot paths stand on; no floored package's tests may quietly
# shrink — and internal/serve, whose replica/hedging/admission machinery
# is all concurrency and failure paths — and internal/driver +
# internal/ssp, the retry/exclusive fan-out and bounded-staleness
# runtimes every elastic rebalance barrier composes with — and
# internal/opt, the solver layer whose update rules every engine's
# round loop now defers to.
WIRE_COVER_FLOOR := 70
VEC_COVER_FLOOR := 80
SERVE_COVER_FLOOR := 75
DRIVER_COVER_FLOOR := 70
SSP_COVER_FLOOR := 70
OPT_COVER_FLOOR := 80
cover:
	@$(GO) test -cover ./... | tee cover.txt
	@status=0; \
	for pf in "internal/wire:$(WIRE_COVER_FLOOR)" "internal/vec:$(VEC_COVER_FLOOR)" "internal/serve:$(SERVE_COVER_FLOOR)" "internal/driver:$(DRIVER_COVER_FLOOR)" "internal/ssp:$(SSP_COVER_FLOOR)" "internal/opt:$(OPT_COVER_FLOOR)"; do \
		pkg=$${pf%%:*}; floor=$${pf##*:}; \
		cov=$$(sed -n "s|^ok[[:space:]]*columnsgd/$$pkg[[:space:]].*coverage: \([0-9.]*\)%.*|\1|p" cover.txt); \
		if [ -z "$$cov" ]; then echo "cover: no coverage line for $$pkg"; status=1; continue; fi; \
		echo "$$pkg coverage: $$cov% (floor $$floor%)"; \
		awk -v c="$$cov" -v f="$$floor" 'BEGIN { exit (c + 0 < f) ? 1 : 0 }' || \
		{ echo "cover: $$pkg coverage $$cov% is below the $$floor% floor"; status=1; }; \
	done; \
	rm -f cover.txt; \
	exit $$status
