# cqabench — standard targets.

GO ?= go

.PHONY: all build test test-short vet cover bench fuzz figures examples clean check

all: build vet test

# The CI gate, which CI's test job runs as one step: vet, formatting, the
# race-sensitive subset, the benchmark module and docs consistency.
check:
	$(GO) vet ./...
# internal/mt refills its state and matches one-image draws with AVX-512
# or AVX2 on amd64 and with the scalar loops alone elsewhere: vet a build
# without the assembly too.
	GOARCH=arm64 $(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
# Under race: obs, harness, syncache and server whole; windowed metrics
# and tracing; the registry, LRU and single-flight; the fair scheduler
# and quotas.
	$(GO) test -race ./internal/obs/... ./internal/harness/... ./internal/syncache/... ./internal/server/...
	$(GO) test -race -run 'TestWindowed|TestTraceID|TestTraceIDEcho|TestDebugRequest' ./internal/obs ./internal/server
	$(GO) test -race -run 'TestInstance|TestEstimateSingleFlight|TestFlightGroup|TestSynopsisLRU' ./internal/scenario ./internal/server
	$(GO) test -race -run 'TestScheduler|TestQuota|TestFairness|TestSingleFlightFollower' ./internal/server
# Kernel equivalence under race.
	$(GO) test -race ./internal/sampler/...
	$(GO) test -race -run 'TestBatched|TestReserve' ./internal/estimator/...
	$(GO) test -race -run 'TestKernel|TestGolden' ./internal/cqa/...
# Intra-query parallel sampling under race. The tuple pool writes result
# slots from several goroutines, so its tests and the set golden run ten
# times over.
	$(GO) test -race -run 'TestSubstream|TestParallel' ./internal/mt ./internal/estimator ./internal/cqa ./internal/server
	$(GO) test -race -count=10 -run 'TestParallel(Matches|Deterministic|Preserves|Budget|Default|Context)|TestConvergenceParallel|TestSetGolden' ./internal/cqa
# The guarantee audit under race.
	$(GO) test -race ./internal/audit/...
# perfbench is its own Go module, so the root go build ./... and go test
# ./... never compile it.
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
# Docs consistency: every flag the docs mention must exist in cqabench -h,
# every subcommand they name must exist, and every documented /v1/ and
# /debug/ endpoint must be registered.
	$(GO) build -o /tmp/cqabench-docscheck ./cmd/cqabench
	$(GO) run ./cmd/docscheck -bin /tmp/cqabench-docscheck \
		-endpoints-dir internal/server,internal/obs \
		README.md EXPERIMENTS.md DESIGN.md results/README.md \
		docs/ARCHITECTURE.md docs/FORMATS.md docs/OBSERVABILITY.md \
		docs/SERVICE.md docs/REGISTRY.md

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

# Short fuzzing sessions over all parsers and service request bodies.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/cq/
	$(GO) test -fuzz FuzzParseSchema -fuzztime 30s ./internal/relation/
	$(GO) test -fuzz FuzzReadDB -fuzztime 30s ./internal/relation/
	$(GO) test -fuzz FuzzParseDIMACS -fuzztime 30s ./internal/dnf/
	$(GO) test -fuzz FuzzCodecRoundTrip -fuzztime 30s ./internal/syncache/
	$(GO) test -fuzz FuzzParseInstanceManifest -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzEstimateRequest -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzInstancePatch -fuzztime 30s ./internal/server/

# Regenerates the committed results/ files with the flags that made them;
# results/README.md lists the same commands.
CQABENCH = $(GO) run ./cmd/cqabench
FIG = -sf 0.0002 -queries 1 -timeout 8s
figures:
	$(CQABENCH) figure -id 1 -balance 0 -joins 1 $(FIG) -csv results/fig1_b0_j1.csv > results/fig1_b0_j1.txt
	$(CQABENCH) figure -id 1 -balance 0 -joins 3 $(FIG) -csv results/fig1_b0_j3.csv > results/fig1_b0_j3.txt
	$(CQABENCH) figure -id 1 -balance 0.5 -joins 1 $(FIG) -csv results/fig1_b05_j1.csv > results/fig1_b05_j1.txt
	$(CQABENCH) figure -id 1 -balance 0.5 -joins 3 $(FIG) -csv results/fig1_b05_j3.csv > results/fig1_b05_j3.txt
	$(CQABENCH) figure -id 2 -noise 0.4 -joins 1 $(FIG) -csv results/fig2_p04_j1.csv > results/fig2_p04_j1.txt
	$(CQABENCH) figure -id 2 -noise 0.4 -joins 3 $(FIG) -csv results/fig2_p04_j3.csv > results/fig2_p04_j3.txt
	$(CQABENCH) figure -id 3 -sf 0.0002 -queries 1 > results/fig3_prep.txt
	$(CQABENCH) figure -id 4 -noise 0.4 -balance 0 $(FIG) > results/fig4_p04_b0.txt
	$(CQABENCH) figure -id 4 -noise 0.4 -balance 0.5 $(FIG) > results/fig4_p04_b05.txt
	$(CQABENCH) validate -benchmark tpch > results/fig5_tpch.txt
	$(CQABENCH) validate -benchmark tpcds > results/fig5_tpcds.txt
	$(CQABENCH) grid -timeout 6s -out results/grid > results/grid.log
	$(CQABENCH) audit -sf 0.0002 -trials 3 -out results/audit_smoke.json -fail-on-violation

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/certain
	$(GO) run ./examples/customschema
	$(GO) run ./examples/dnfcount
	$(GO) run ./examples/warehouse
	$(GO) run ./examples/validation

clean:
	rm -rf grid-results scenario-export
