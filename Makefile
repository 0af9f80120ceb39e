# The full gate a change must pass before merging. Each layer catches a
# different bug class:
#   build       — it compiles;
#   vet         — the stock Go correctness checks;
#   lint        — the LeiShen domain suite (cmd/leishenlint): overflow-error
#                 discipline, deterministic map iteration, lock hygiene,
#                 purity of the detection pipeline, fsync discipline in the
#                 storage layer, and the flow-sensitive analyzers (lost
#                 errors, leaked goroutines, order taint); emits lint.json
#                 as a machine-readable artifact;
#   test        — the unit and scenario suites;
#   race        — the concurrent surfaces (HTTP server, scan pool, chain,
#                 token registry, archive, follower) and the parallel lint
#                 driver under the race detector, then ten rounds of the
#                 scan stream's, Each's windowed lookahead and the
#                 follower's lookahead tests, whose interleavings vary
#                 from run to run;
#   bench-smoke — the throughput harness still runs end to end (tiny
#                 corpus, no numbers recorded), and one follower
#                 catch-up pass reports tx/s and allocated bytes per tx;
#   bench-serve-smoke — the HTTP serve benchmark on a tiny archive; it
#                 hard-fails when a /reports page allocates more than
#                 8 times (a handler-level count, not a host figure);
#   bench-metrics-smoke — the telemetry overhead proof; it hard-fails
#                 when an instrumented scan runs >3% slower than a bare
#                 one or allocates on the per-transaction path;
#   bench-scan-smoke — the detection hot-path budget; it re-measures the
#                 committed corpus and hard-fails when steady-state
#                 allocations exceed 2 per transaction or sequential
#                 throughput drops >10% below the committed
#                 BENCH_scan.json baseline;
#   fault-smoke — the crash-consistency torture matrix: every archive
#                 write schedule is crashed at every mutating operation,
#                 recovered under durable/volatile/torn disk variants,
#                 and checked against the recovery invariants; any
#                 violation hard-fails the gate (bounded: ~250 crash
#                 points, runs in seconds);
#   fuzz-smoke  — short fuzz passes over the archive's record decoder,
#                 the sidecar-index decoder, the list read's in-place
#                 frame compaction (differential against a model and
#                 per-frame reads), the uint256 small-value
#                 fast paths (differential against math/big), the
#                 report JSON encoder (differential against encoding/json),
#                 and the detector over mutated corpus receipts;
#   perfbench   — the end-to-end benchmark's nested module builds against
#                 the current packages and its scale-1 self-test passes
#                 (the root `go build ./...` never compiles it).
.PHONY: check build vet lint test race bench bench-smoke bench-serve-smoke bench-metrics-smoke bench-scan-smoke fault-smoke fuzz-smoke perfbench

check: build vet lint test race bench-smoke bench-serve-smoke bench-metrics-smoke bench-scan-smoke fault-smoke fuzz-smoke perfbench

build:
	go build ./...

vet:
	go vet ./...

lint:
	go run ./cmd/leishenlint -strict-waivers -json-out lint.json ./...

test:
	go test ./...

race:
	go test -race ./internal/serve/... ./internal/evm/... ./internal/token/... ./internal/scan/... ./internal/archive/... ./internal/follower/... ./internal/analysis/... ./internal/metrics/... ./internal/vfs/...
	go test -race -count=10 -run 'Stream|Lookahead|Each' ./internal/scan ./internal/follower

# bench records scan throughput + allocation figures to BENCH_scan.json,
# archive append/reopen/select figures to BENCH_archive.json,
# per-analyzer lint wall time to BENCH_lint.json, HTTP read-path
# throughput and allocations to BENCH_serve.json, and the
# telemetry overhead proof to BENCH_metrics.json (tracked; regenerate
# when the hot path, the storage layer, the analysis suite, the serving
# layer, or the instrumentation changes).
bench:
	go run ./cmd/benchjson -out BENCH_scan.json -archive-out BENCH_archive.json -lint-out BENCH_lint.json -serve-out BENCH_serve.json -metrics-out BENCH_metrics.json -fault-out BENCH_fault.json

bench-smoke:
	go run ./cmd/benchjson -smoke -out - -archive-out - -lint-out - -serve-out "" -metrics-out "" -fault-out ""
	go test -run '^$$' -bench BenchmarkFollowerCatchUp -benchtime=1x ./internal/follower

bench-serve-smoke:
	go run ./cmd/benchjson -smoke -out "" -archive-out "" -lint-out "" -serve-out - -metrics-out "" -fault-out ""

bench-metrics-smoke:
	go run ./cmd/benchjson -smoke -out "" -archive-out "" -lint-out "" -serve-out "" -metrics-out - -fault-out ""

# bench-scan-smoke re-runs the scan pass on the same corpus shape as the
# committed BENCH_scan.json and enforces the hot-path contract: at most
# 2 steady-state allocations per transaction, sequential throughput
# within 10% of the committed figure.
bench-scan-smoke:
	go run ./cmd/benchjson -scan-gate -out - -archive-out "" -lint-out "" -serve-out "" -metrics-out "" -fault-out ""

# fault-smoke runs the crash-consistency torture matrix to stdout and
# hard-fails on any invariant violation — the fast, deterministic form
# of the fault gate (the full bench records it to BENCH_fault.json).
fault-smoke:
	go run ./cmd/benchjson -out "" -archive-out "" -lint-out "" -serve-out "" -metrics-out "" -fault-out -

# fuzz-smoke hammers the segment decoder and the sidecar-index decoder
# with mutated bytes (no input may panic, mis-frame, or decode to a
# record/index that re-encodes differently), the /reports list read
# differentially against a model of the appended reports and per-frame
# reads (fuzzed archive shapes and queries), the uint256 small-value
# fast paths differentially against math/big (every arithmetic result,
# rendering, and comparison must agree on mixed-limb operands), the
# append-form report encoder differentially against encoding/json
# (random strings, amounts, floats and times: identical bytes, identical
# failures, valid JSON that round-trips through the decode schema), and
# the detector over corpus receipts with logs dropped, duplicated,
# reordered or truncated and amounts at zero or the uint256 maximum (no
# panic, a fresh and a reused arena give identical report bytes, the
# report round-trips through the decode schema).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 8s ./internal/archive
	go test -run '^$$' -fuzz FuzzSidecarDecode -fuzztime 8s ./internal/archive
	go test -run '^$$' -fuzz FuzzAppendSelect -fuzztime 8s ./internal/archive
	go test -run '^$$' -fuzz FuzzUint256FastPath -fuzztime 8s ./internal/uint256
	go test -run '^$$' -fuzz FuzzReportAppendJSON -fuzztime 8s ./internal/core
	go test -run '^$$' -fuzz FuzzInspect -fuzztime 8s ./internal/core

# perfbench is a nested module, so only this step compiles it: an API
# the benchmark uses cannot be removed without failing here.
perfbench:
	cd perfbench && go test ./...
