GO ?= go

.PHONY: build test vet race loc bench bench-json bench-diff bench-svc bench-svc-record bench-trace-dist bench-trace-dist-record check test-faults test-dist test-svc test-trace-dist fmt-check doc-check dep-check report critpath cover

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

bench:
	$(GO) test -run NONE -bench . -benchmem .

# Regenerate the PR's benchmark record (see README "Performance").
BENCH_OUT ?= BENCH_1.json
bench-json:
	$(GO) test -run NONE -bench . -benchmem . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# Run the benchmarks and print per-benchmark ns/op deltas against the most
# recently recorded BENCH_*.json (highest number wins).
bench-diff:
	$(GO) test -run NONE -bench . -benchmem . | \
		$(GO) run ./cmd/benchjson -diff "$$(ls BENCH_*.json | sort -V | tail -1)"

# The control-plane acceptance suite under -race: run registry durability
# and rescan, fair queuing and quotas, the HTTP API lifecycle, SSE replay
# determinism, and aiacrun's signal-sealing contract (see DESIGN.md §12).
test-svc:
	$(GO) test -race -timeout 30m ./internal/obs/ ./internal/report/ ./cmd/aiacrun/

# Control-plane load test: thousands of short solves through the HTTP API,
# diffed against the committed BENCH_6.json record. Set BENCH_SVC_GATE to a
# ratio (e.g. 1.5) to fail when the mean submit-to-done latency regresses
# past it; keep it unset on hosts that don't match the baseline's num_cpu
# field (wall-clock latency on a different core count is not a regression).
BENCH_SVC_GATE ?=
bench-svc:
	$(GO) run ./cmd/aiacload -runs 1400 -t 4 | \
		$(GO) run ./cmd/benchjson -diff BENCH_6.json \
			$(if $(BENCH_SVC_GATE),-fail-above $(BENCH_SVC_GATE))

# Regenerate the committed load-test record on this host.
bench-svc-record:
	$(GO) run ./cmd/aiacload -runs 1400 -t 4 | \
		$(GO) run ./cmd/benchjson -o BENCH_6.json \
			-note "solver-as-a-service load test (aiacload, self-hosted)"

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
# golden (see DESIGN.md §11). The last line runs without -race, which the
# allocation pins of the data plane cannot be measured under.
test-dist:
	$(GO) test -race -timeout 30m ./internal/rtime/ ./internal/dtime/
	$(GO) test -race -timeout 30m ./internal/fault/ -run 'TestConn'
	$(GO) test -race -timeout 30m ./internal/engine/ -run 'TestDist'
	$(GO) test ./internal/dtime/ ./internal/engine/ -run 'TestDistDataPlaneAllocs'

# The federated-tracing acceptance suite under -race: federation validation,
# clock-offset normalization, lost/duplicate wire rewrites, byte-determinism
# of the merged exports, and the end-to-end dist critical path with
# wire-transit blame (see DESIGN.md §13).
test-trace-dist:
	$(GO) test -race -timeout 30m ./internal/trace/
	$(GO) test -race -timeout 30m ./internal/engine/ -run 'TestDistTrace'

# Tracing-overhead gate: the same loopback dist solve with tracing off and
# on, diffed against the committed BENCH_7.json record (whose trace=on/off
# ns/op pair documents the tax — it must stay under 5%). Set
# BENCH_TRACE_GATE to a ratio (e.g. 1.25) to fail when either op regresses
# past it; keep it unset on hosts that don't match the record's num_cpu.
BENCH_TRACE_GATE ?=
bench-trace-dist:
	$(GO) test -run NONE -bench DistTraceOverhead -benchtime 5x -benchmem . | \
		$(GO) run ./cmd/benchjson -diff BENCH_7.json \
			$(if $(BENCH_TRACE_GATE),-fail-above $(BENCH_TRACE_GATE))

# Regenerate the committed tracing-overhead record on this host.
bench-trace-dist-record:
	$(GO) test -run NONE -bench DistTraceOverhead -benchtime 5x -benchmem . | \
		$(GO) run ./cmd/benchjson -o BENCH_7.json \
			-note "distributed tracing overhead: loopback dist solve pair, trace off/on (SISC n=64, speedup 1; tax must stay <5%)"

# Coverage gate: the trace layer (causal schema, Chrome export, critical-path
# analysis) must stay >= 80% covered.
COVER_MIN ?= 80
cover:
	$(GO) test -coverprofile=/tmp/aiac-cover.out ./internal/trace/
	@pct=$$($(GO) tool cover -func=/tmp/aiac-cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "internal/trace coverage: $$pct%"; \
	awk -v p="$$pct" -v min="$(COVER_MIN)" 'BEGIN {exit !(p+0 < min+0)}' && \
		{ echo "FAIL: internal/trace coverage $$pct% < $(COVER_MIN)%"; exit 1; } || true

# Non-test Go lines, in total and outside bench/: the figure every PR reports
# before and after (ROADMAP aim 2).
loc:
	@printf 'non-test Go lines, total:          '; find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
	@printf 'non-test Go lines, outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './bench/*' -print0 | xargs -0 cat | wc -l

check: build fmt-check doc-check dep-check vet test test-faults test-dist test-trace-dist test-svc race
