GO ?= go

.PHONY: ci fmt vet build test race determinism faults bench lint benchmod

# ci is the gate every PR must pass: formatting, static checks (go vet +
# the repo's own contract analyzers), build, the full test suite, the race
# detector over the concurrent paths (batch pipeline + network server +
# shared dsp scratch), the batch-determinism contract, the
# crash-consistency fault-injection suite, and the benchmark module.
ci: fmt vet lint build test race determinism faults benchmod

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the softlora contract analyzers (internal/lint): determinism,
# allocfree, bufpool ownership, lock/shard discipline — interprocedurally,
# over the call graph of the whole load — and rejects any //softlora:
# directive that none of them reads.
# -tests extends the load to each package's test variants, so contract
# regressions in _test.go helpers are caught too (package-wide directives
# still scope only to non-test files).
# See "Static contracts" in ROADMAP.md for the directives they understand.
lint:
	$(GO) run ./cmd/softlora-lint -tests ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -run Batch .
	$(GO) test -race ./internal/netserver
	$(GO) test -race -run 'Concurrent|Parallel|Race' ./internal/dsp

# determinism re-runs the ordered-commit contracts explicitly: verdicts and
# serialized bias-database bytes must be identical for every worker count
# (batch pipeline), with the AIC detector's float64 reference lane switched
# on or off in the batch workers, and for every delivery schedule of the
# same copies (streaming dedup window). TestGatewayOutputDigests pins both
# gateway pipelines' outputs to committed digests (amd64 below v3 only), so
# a change that must not alter outputs can show it here.
determinism:
	$(GO) test -count=1 -run 'TestProcessBatchSameDeviceDeterministicCommit|TestProcessBatchDeterministicAcrossWorkerCounts|TestProcessBatchDeterministicAcrossFloatLanes|TestMultiGatewayDeterministic|TestGatewayOutputDigests' .
	$(GO) test -count=1 -run 'TestChaosDatabaseBytesScheduleIndependent|TestCheckBatchOrderIndependentDatabase' ./internal/netserver

# faults replays the fault-injection suites: the filesystem injector
# (internal/faultinject) kills a bias-database flush at every filesystem
# operation — crash-before and crash-after — plus the recoverable-error
# retry and silent-bit-flip quarantine paths; the delivery chaos harness
# (TestChaos*) drives the streaming dedup window through duplicated,
# reordered, delayed and dropped schedules and asserts one committed
# verdict per frame with schedule-independent database bytes; then short
# fuzz passes over the snapshot decoder and LoadFile's format sniff. The
# contracts in internal/netserver/doc.go are exactly what this target
# enforces. -fuzzminimizetime caps how long a pass may spend minimizing a
# new input: at the default 60 s, one minimization can eat the rest of a
# 10-s pass.
faults:
	$(GO) test -count=1 ./internal/faultinject
	$(GO) test -count=1 -run 'TestCrash|TestFault|TestChaos' ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzLoadShard$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzLoadFile$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/netserver

# bench refreshes BENCH_softlora.json (the cross-PR perf trajectory).
bench:
	sh scripts/bench.sh

# benchmod vets and tests the benchmark (softlorabench/), a nested module
# that `go build ./...` skips: it catches a change to the public API the
# benchmark uses before the benchmark itself has to run.
benchmod:
	$(GO) -C softlorabench vet .
	$(GO) -C softlorabench test .
