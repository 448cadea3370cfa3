GO ?= go

.PHONY: ci fmt vet build test race determinism faults lint benchmod

# ci is the gate every change must pass: formatting, static checks (go vet +
# the repo's own contract analyzers), build, the full test suite with one
# iteration of every Go benchmark, the race detector over the concurrent
# paths (batch pipeline + network server + shared dsp scratch), the
# batch-determinism contract, the crash-consistency fault-injection suite,
# and the benchmark module. Perf is compared against a base revision by
# scripts/benchcompare.sh (CI's bench-compare job), not here.
ci: fmt vet lint build test race determinism faults benchmod

fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the softlora contract analyzers (internal/lint): determinism,
# allocfree, lock/shard discipline — interprocedurally, over the call graph
# of the whole load — and rejects any //softlora: directive that none of
# them reads.
# -tests extends the load to each package's test variants, so contract
# regressions in _test.go helpers are caught too (package-wide directives
# still scope only to non-test files).
# See "Static contracts" in ROADMAP.md for the directives they understand.
lint:
	$(GO) run ./cmd/softlora-lint -tests ./...

build:
	$(GO) build ./...

# The benchmark line runs each Go benchmark once, so the profiling
# benchmarks keep compiling and running; it measures nothing.
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

race:
	$(GO) test -race -run Batch .
	$(GO) test -race ./internal/netserver
	$(GO) test -race -run 'Concurrent|Parallel|Race' ./internal/dsp

# determinism re-runs the ordered-commit contracts explicitly: verdicts and
# serialized bias-database bytes must be identical for every worker count
# (batch pipeline), with the AIC detector's float64 reference lane switched
# on or off in the batch workers, and for every delivery schedule of the
# same copies (streaming dedup window). Two sets of pins guard the server's
# reuse of earlier work: a window frame recycled from the free list must
# never commit early, and a flush that copies a shard in the order cached
# from its last flush must write the bytes a fresh copy-and-sort would —
# after every kind of membership change, with IDs enrolled during the
# flush, and for a second server flushed through the same Snapshotter.
# TestGatewayOutputDigests pins the outputs of five gateway configurations
# (onset + FB method pairs) to committed digests, each through ProcessBatch
# and through single-capture ProcessUplink calls (amd64 below v3 only), so a
# change that must not alter outputs can show it here.
# TestWindowedStreamDigest does the same for the windowed network server:
# a small server-stream-shaped stream with duplicates, reorder, delays,
# shed and re-opened frames, its verdicts, counters and database pinned to
# one digest (amd64 below v3 only).
determinism:
	$(GO) test -count=1 -run 'TestProcessBatchSameDeviceDeterministicCommit|TestProcessBatchDeterministicAcrossWorkerCounts|TestProcessBatchDeterministicAcrossFloatLanes|TestMultiGatewayDeterministic|TestGatewayOutputDigests' .
	$(GO) test -count=1 -run 'TestChaosDatabaseBytesScheduleIndependent|TestCheckBatchOrderIndependentDatabase|TestWindowReusedFrameNotCommittedEarly|TestFlushCachedOrder|TestWindowedStreamDigest' ./internal/netserver

# faults replays the fault-injection suites: the filesystem injector
# (internal/faultinject) kills a bias-database flush at every filesystem
# operation — crash-before and crash-after — plus the recoverable-error
# retry and silent-bit-flip quarantine paths; the delivery chaos harness
# (TestChaos*) drives the streaming dedup window through duplicated,
# reordered, delayed and dropped schedules and asserts one committed
# verdict per frame with schedule-independent database bytes; then short
# fuzz passes over the snapshot decoder, LoadFile's format sniff, the
# streaming server (FuzzNetworkServerStream: arbitrary observations, IDs
# and call boundaries through windowed and immediate-mode servers; the
# window's contract, a drained unbounded window equal to a CheckFrame
# reference, and a finite fused FB for every frame with a finite copy), the
# gateway's recorded-I/Q boundary (ObserveIQ: arbitrary float32 I/Q, rate
# and method; a typed error or a finite observation), the recorded-I/Q file
# decoder (FuzzRead: a typed error for a length that is not a multiple of 8,
# otherwise samples that write back to the input bytes, NaN payloads aside)
# and the LoRaWAN frame decoder (FuzzParseFrame: a typed error, or a frame
# that re-marshals to exactly the input bytes). The contracts in
# internal/netserver/doc.go are exactly what the netserver steps enforce.
# -fuzzminimizetime caps how long a pass may spend minimizing a new input:
# at the default 60 s, one minimization can eat the rest of a 10-s pass.
faults:
	$(GO) test -count=1 ./internal/faultinject
	$(GO) test -count=1 -run 'TestCrash|TestFault|TestChaos' ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzLoadShard$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzLoadFile$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzNetworkServerStream$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/netserver
	$(GO) test -run '^$$' -fuzz '^FuzzGatewayObserveIQ$$' -fuzztime 10s -fuzzminimizetime 100x .
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/iqfile
	$(GO) test -run '^$$' -fuzz '^FuzzParseFrame$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/lorawan

# benchmod vets and tests the benchmark (softlorabench/), a nested module
# that `go build ./...` skips: it catches a change to the public API the
# benchmark uses before the benchmark itself has to run.
benchmod:
	$(GO) -C softlorabench vet .
	$(GO) -C softlorabench test .
