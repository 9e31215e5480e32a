# cqabench — standard targets.

GO ?= go

.PHONY: all build test test-short vet cover bench fuzz figures examples clean check

all: build vet test

# The CI gate: vet, formatting, the race-sensitive subset, the
# benchmark module (perfbench is its own Go module, so ./... above never
# compiles it), and docs consistency (every flag the docs mention must
# exist in cqabench -h, every documented /v1/ and /debug/ endpoint must
# be registered).
check:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -race ./internal/obs/... ./internal/harness/... ./internal/syncache/... ./internal/server/...
	$(GO) test -race -run 'TestWindowed|TestTraceID|TestTraceIDEcho|TestDebugRequest' ./internal/obs ./internal/server
	$(GO) test -race -run 'TestInstance|TestEstimateSingleFlight|TestFlightGroup|TestSynopsisLRU' ./internal/scenario ./internal/server
	$(GO) test -race -run 'TestScheduler|TestQuota|TestFairness|TestSingleFlightFollower' ./internal/server
	$(GO) test -race ./internal/sampler/...
	$(GO) test -race -run 'TestBatched|TestReserve' ./internal/estimator/...
	$(GO) test -race -run 'TestKernel|TestGolden' ./internal/cqa/...
	$(GO) test -race -run 'TestSubstream|TestParallel' ./internal/mt ./internal/estimator ./internal/cqa ./internal/server
	$(GO) test -race -count=10 -run 'TestParallel(Matches|Deterministic|Preserves|Budget|Default|Context)|TestConvergenceParallel|TestSetGolden' ./internal/cqa
	$(GO) test -race ./internal/audit/...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) build -o /tmp/cqabench-docscheck ./cmd/cqabench
	$(GO) run ./cmd/docscheck -bin /tmp/cqabench-docscheck \
		-endpoints-dir internal/server,internal/obs \
		README.md EXPERIMENTS.md docs/ARCHITECTURE.md docs/FORMATS.md \
		docs/OBSERVABILITY.md docs/SERVICE.md docs/REGISTRY.md

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

# Regenerates every paper figure family and the ablations as benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing sessions over all parsers.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/cq/
	$(GO) test -fuzz FuzzParseSchema -fuzztime 30s ./internal/relation/
	$(GO) test -fuzz FuzzReadDB -fuzztime 30s ./internal/relation/
	$(GO) test -fuzz FuzzParseDIMACS -fuzztime 30s ./internal/dnf/
	$(GO) test -fuzz FuzzCodecRoundTrip -fuzztime 30s ./internal/syncache/

# The paper's figures as text tables under results/.
figures:
	$(GO) run ./cmd/cqabench figure -id 1 -balance 0   -joins 1
	$(GO) run ./cmd/cqabench figure -id 1 -balance 0.5 -joins 1
	$(GO) run ./cmd/cqabench figure -id 2 -noise 0.4 -joins 1
	$(GO) run ./cmd/cqabench figure -id 3
	$(GO) run ./cmd/cqabench figure -id 4 -noise 0.4 -balance 0
	$(GO) run ./cmd/cqabench validate -benchmark tpch

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/certain
	$(GO) run ./examples/customschema
	$(GO) run ./examples/dnfcount
	$(GO) run ./examples/warehouse
	$(GO) run ./examples/validation

clean:
	rm -rf grid-results scenario-export
