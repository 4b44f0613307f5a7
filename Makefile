GO ?= go
TWVET = /tmp/twvet-bin

.PHONY: build test twvet vet verify verify-race verify-intervals bench bench-json clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## twvet: run the repo's custom analyzers (internal/analysis, cmd/twvet)
## over every package through the real `go vet -vettool` protocol. The
## passes mechanize the simulation invariants: deterministic iteration in
## result packages, nil-guarded telemetry on hot paths, balanced
## trap/breakpoint/pool pairing, digest completeness, lock discipline,
## and Options.Validate at experiment boundaries. See DESIGN.md §9 and
## §14 for the invariant catalog and the modular-facts model.
##
## Two invocations on purpose — the cached-vetx smoke: the first run
## computes and caches a .vetx fact file per internal package; the
## second analyzes the remaining roots (the facade, cmd/, examples/)
## against those cached fact files, so a vetx encode/decode regression
## fails on a warm cache too, not just a cold one.
twvet:
	$(GO) build -o $(TWVET) ./cmd/twvet
	$(GO) vet -vettool=$(TWVET) ./internal/...
	$(GO) vet -vettool=$(TWVET) ./...

## vet: stock go vet plus the twvet suite.
vet: twvet
	$(GO) vet ./...

## verify: the tier-1 gate (see ROADMAP.md): build, stock vet, the twvet
## invariant suite, and the full test run. The byte-identity gate for
## every execution-mode toggle (fastpath, compile, gang, result cache,
## telemetry, parallelism) is TestModeLattice in internal/experiment.
verify: build vet test

## verify-race: tier-1 plus the race detector. The run scheduler fans
## independent simulations across goroutines; this target is the
## concurrency gate for any change touching internal/sched or the
## experiment harness. The experiment package's byte-identity matrices
## run long under -race, so the default 10m per-package timeout is
## raised rather than trimming coverage.
verify-race: vet
	$(GO) test -race -timeout 30m ./...

## verify-intervals: the gate for representative-interval sampling.
## Sampling is an approximation, so it is error-bound-gated rather than
## diffed — `twbench -verify-intervals` reruns the pinned sweep both ways
## and fails unless the speedup is ≥ 5× with every extrapolated miss
## ratio within 0.02 of exact (the same bounds CI applies to the bench
## JSON's interval_sampling section). A deterministic twsweep spot check
## rides along: two identical sampled runs must render identical tables.
## With sampling off the phase machinery takes no part in a run; the
## exhaustive path's identity across gang and parallelism is
## TestModeLattice's job.
verify-intervals:
	$(GO) build -o /tmp/twbench-vi ./cmd/twbench
	$(GO) build -o /tmp/twsweep-vi ./cmd/twsweep
	/tmp/twsweep-vi -scale 1000 -q -parallel 1 -result-cache=false \
		-phase-intervals 64 -phase-k 3 -phase-warmup 2000 > /tmp/vi-on-a.txt
	/tmp/twsweep-vi -scale 1000 -q -parallel 8 -result-cache=false \
		-phase-intervals 64 -phase-k 3 -phase-warmup 2000 > /tmp/vi-on-b.txt
	diff /tmp/vi-on-a.txt /tmp/vi-on-b.txt
	/tmp/twbench-vi -verify-intervals -q
	@echo "verify-intervals: sampled path deterministic and within gates"

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-json: record the fast-vs-baseline perf trajectory for Figure 2 at
## the bench_test.go conditions, the ganged accuracy-sweep suite
## (figure3/table8/table9 ganged vs solo, with allocation counts), the
## gang member-count scaling curve, the per-workload hot loop, the
## result-cache section (cold vs warm sweep), and the interval-sampling
## section
## (exhaustive vs representative-interval replay with the worst
## extrapolation error), writing BENCH_<label>.json (label defaults to
## "pr9"; override with BENCH_LABEL=...).
BENCH_LABEL ?= pr9
bench-json:
	$(GO) build -o /tmp/twbench-bj ./cmd/twbench
	/tmp/twbench-bj -bench-json $(BENCH_LABEL) -run figure2 \
		-scale 1000 -trials 4 -frames 4096

clean:
	$(GO) clean ./...
