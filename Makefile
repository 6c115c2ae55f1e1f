GO ?= go

# Build only with the installed toolchain: a go line in go.mod above it stops
# every target with an error instead of downloading a newer one.
export GOTOOLCHAIN := local

.PHONY: build test vet race loc bench check test-faults test-dist test-svc test-trace-dist fmt-check doc-check dep-check report critpath cover flakes quick-golden results

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The engine and the experiment worker pool must stay race-clean; the full
# suite under -race is slow on small hosts, hence the generous timeout.
race:
	$(GO) test -race -timeout 60m ./...

# Every Go benchmark in the module, once: a benchmark that stops compiling or
# fails its own convergence check fails here. The repository's benchmark is
# bench/ (bash bench/run.sh); the Go benchmarks are the off/on pairs it does
# not measure and kernel micro-benchmarks.
bench:
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# The control-plane acceptance suite under -race: run registry durability
# and its lazily read index (an open that reads no manifest, concurrent first
# reads of one run), fair queuing and quotas, the HTTP API lifecycle, SSE
# replay determinism, and aiacrun's signal-sealing contract (see DESIGN.md
# §12); then the fuzzers of the bytes it serves: the SSE replay and reader,
# and the telemetry export reader.
test-svc:
	$(GO) test -race -timeout 30m ./internal/obs/ ./internal/report/ ./cmd/aiacrun/
	$(GO) test -race -run NONE -fuzz FuzzStream -fuzztime 10s ./internal/report/
	$(GO) test -race -run NONE -fuzz FuzzReadSSE -fuzztime 10s ./internal/report/
	$(GO) test -race -run NONE -fuzz FuzzReadRun -fuzztime 10s ./internal/metrics/

# Everything must stay gofmt-clean; prints the offending files on failure.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The docs must not name what the repository does not have: every make
# target, repository path and aiacrun/paperexp flag that README.md, DESIGN.md,
# EXPERIMENTS.md and the verify skill mention has to exist.
doc-check:
	sh scripts/doc-check.sh

# The import graph must be the one DESIGN.md §6 writes down: every import of
# a module package under internal/ and cmd/ is listed in its package's row of
# the table there, and every row names a package that exists.
dep-check:
	sh scripts/dep-check.sh

# Telemetry demo: run the Figure-5-style LB pair with -metrics, render the
# balanced run's dashboard, then diff the pair (see README "Observability").
REPORT_DIR ?= /tmp/aiac-report
report:
	mkdir -p $(REPORT_DIR)
	$(GO) run ./cmd/aiacrun -mode aiac -p 4 -n 32 -cluster heterogeneous \
		-metrics $(REPORT_DIR)/lb-off.jsonl
	$(GO) run ./cmd/aiacrun -mode aiac -p 4 -n 32 -cluster heterogeneous \
		-lb -metrics $(REPORT_DIR)/lb-on.jsonl
	$(GO) run ./cmd/aiacreport $(REPORT_DIR)/lb-on.jsonl
	$(GO) run ./cmd/aiacreport -diff $(REPORT_DIR)/lb-off.jsonl $(REPORT_DIR)/lb-on.jsonl

# Critical-path demo: trace the Figure-5-style LB pair, render each run's
# convergence critical path, and diff where the time went (see README
# "Observability" — on-path vs off-path LB transfers).
critpath:
	mkdir -p $(REPORT_DIR)
	$(GO) run ./cmd/aiacrun -mode aiac -p 4 -n 32 -cluster heterogeneous \
		-trace-csv $(REPORT_DIR)/lb-off.csv > /dev/null
	$(GO) run ./cmd/aiacrun -mode aiac -p 4 -n 32 -cluster heterogeneous \
		-lb -trace-csv $(REPORT_DIR)/lb-on.csv > /dev/null
	@echo "=== without load balancing ==="
	$(GO) run ./cmd/aiacreport -critical-path $(REPORT_DIR)/lb-off.csv
	@echo
	@echo "=== with load balancing ==="
	$(GO) run ./cmd/aiacreport -critical-path $(REPORT_DIR)/lb-on.csv

# The fault-injection acceptance grid (seed × rate × mode invariant harness,
# handshake idempotency, golden-seed regression) at test scale; see
# EXPERIMENTS.md "Fault model".
test-faults:
	$(GO) test ./internal/fault/ ./internal/vtime/ -run 'Fault|Ownership|Monotone'
	$(GO) test ./internal/loadbalance/ -run 'FuzzLBHandshake'
	$(GO) test ./internal/engine/ -run 'TestFault|TestZeroRatePlan|TestSyncModeStalls|TestGoldenSeed'

# The distributed backend acceptance grid over TCP loopback, all under
# -race: the real-time runtime the workers' ranks run on (rtime.World, with
# the Env-contract table over its three hostings), the dtime protocol and
# lifecycle suite (frame codec and reader with their fuzz seed corpora, crash,
# heartbeat and stalled-reader supervision), the wire-level fault-conn pins,
# and the engine's cross-backend equivalence + wire-invariant grid and wire
# golden (see DESIGN.md §11), then the fuzzers of a worker's outcome blob, the
# only payload a worker sends home at the end of a run, and of the payload
# codec, which decodes every message from another worker into the buffers
# the worker recycles. The last line runs
# without -race, which the allocation pins of the data plane cannot be
# measured under: the transport's, and a local rtime Send→RecvWait round
# trip's.
test-dist:
	$(GO) test -race -timeout 30m ./internal/rtime/ ./internal/dtime/
	$(GO) test -race -timeout 30m ./internal/fault/ -run 'TestConn'
	$(GO) test -race -timeout 30m ./internal/engine/ -run 'TestDist'
	$(GO) test -race -run NONE -fuzz FuzzWorkerResult -fuzztime 10s ./internal/engine/
	$(GO) test -race -run NONE -fuzz FuzzPayloadCodec -fuzztime 10s ./internal/engine/
	$(GO) test ./internal/rtime/ ./internal/dtime/ ./internal/engine/ -run 'TestDistDataPlaneAllocs|TestLocalSendRecvAllocs'

# The federated-tracing acceptance suite under -race: federation validation,
# clock-offset normalization, lost/duplicate wire rewrites, byte-determinism
# of the merged exports, and the end-to-end dist critical path with
# wire-transit blame (see DESIGN.md §13); then the fuzzer of the trace CSV
# reader, through the critical-path analysis and report aiacreport runs on it.
test-trace-dist:
	$(GO) test -race -timeout 30m ./internal/trace/
	$(GO) test -race -timeout 30m ./internal/engine/ -run 'TestDistTrace'
	$(GO) test -race -run NONE -fuzz FuzzReadCSV -fuzztime 10s ./internal/trace/

# ROADMAP item 0's real-time tests, each run FLAKE_RUNS times from one
# prebuilt engine test binary: prints "name passes/runs" per test and fails
# when any run failed. Not in check: their pass rates are what item 0 has to
# fix, and this measures them.
FLAKE_RUNS ?= 20
FLAKE_TESTS = TestDistWireInvariants TestRealTimeRunnerCrossCheck \
	TestRingDetectionOnRealRuntime TestDistEquivalenceGrid \
	TestDistTraceFederatedEndToEnd
flakes:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -c -o "$$dir/engine.test" ./internal/engine/ && \
	cd internal/engine && fail=0 && \
	for t in $(FLAKE_TESTS); do \
		pass=0; \
		for i in $$(seq $(FLAKE_RUNS)); do \
			if "$$dir/engine.test" -test.run "^$$t\$$" >/dev/null 2>&1; \
			then pass=$$((pass + 1)); else fail=1; fi; \
		done; \
		echo "$$t $$pass/$(FLAKE_RUNS)"; \
	done; \
	exit $$fail

# Coverage gate, part of check: the trace layer (causal schema, Chrome export,
# critical-path analysis) must stay >= 80% covered. The profile goes to a
# fresh temporary directory, removed on exit.
COVER_MIN ?= 80
cover:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) test -coverprofile="$$dir/cover.out" ./internal/trace/ && \
	pct=$$($(GO) tool cover -func="$$dir/cover.out" | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}') && \
	echo "internal/trace coverage: $$pct%" && \
	if awk -v p="$$pct" -v min="$(COVER_MIN)" 'BEGIN {exit !(p+0 < min+0)}'; then \
		echo "FAIL: internal/trace coverage $$pct% < $(COVER_MIN)%"; exit 1; fi

# Rewrite the quick-scale experiment reports that TestAllQuick compares byte
# for byte (internal/experiments/testdata/quick/<id>.txt). Only for a change
# meant to move a number: the diff of the rewritten files is its record.
quick-golden:
	$(GO) test -count=1 -run '^TestAllQuick$$' ./internal/experiments/ -update

# The full-scale artifacts EXPERIMENTS.md embeds must be what paperexp prints
# today: reruns the full suite (and the quick diagnostics) into a temporary
# directory and fails with a diff for each stale report. Not in check: the
# full suite takes about 6 min on two cores.
results:
	GO="$(GO)" sh scripts/results-check.sh

# Non-test Go lines, in total and outside bench/: the figure every PR reports
# before and after (ROADMAP aim 2).
loc:
	@printf 'non-test Go lines, total:          '; find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
	@printf 'non-test Go lines, outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './bench/*' -print0 | xargs -0 cat | wc -l

check: build fmt-check doc-check dep-check vet test cover bench test-faults test-dist test-trace-dist test-svc race
