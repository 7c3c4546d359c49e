GO ?= go

.PHONY: all fmt vet lint build test race bench perfgate trace-smoke fuzz crashtest chaostest drifttest reprotest check clean

all: check

# Fails when any file is unformatted; instrumentation never lands ugly.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant analyzer suite (internal/analysis): the PR 4
# per-expression checks plus the CFG/dataflow lifecycle suite
# (goroutineleak, poolhandoff, spanbalance, walorder, metricsconv).
# Packages are analyzed in parallel; the run emits a SARIF 2.1.0
# artifact (CI uploads it). Any unsuppressed error-severity finding
# fails the build; warn-severity findings are reported but only inform.
# See README "Static analysis" for //rhmd:ignore.
lint:
	$(GO) run ./cmd/rhmd-lint -sarif rhmd-lint.sarif ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test and subtest order so accidental
# inter-test coupling (shared globals, leftover files) surfaces here
# instead of in a flaky CI run months later.
race:
	$(GO) test -race -shuffle=on ./...

# Smoke-run every benchmark once: catches bit-rotted benchmarks and
# regressions that crash, without the cost of a timed run.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# perfbench A/B gate against the previous commit: perfbench at HEAD~1
# (checked out in a git worktree, with this checkout's perfbench/
# copied over it) and at this checkout, alternating pairs on
# repeat-long and short-durable, judged by cmd/rhmd-perfgate against
# BENCHMARK.json. Fails on a wrong verdict or a regression beyond both
# the parent's spread and the metric's bound. See scripts/perfgate.sh;
# CI runs it in the perfgate job.
perfgate:
	./scripts/perfgate.sh HEAD~1

# End-to-end smoke for verdict span tracing, the fleet's metrics and
# the SLO/incident endpoints: boot rhmd-monitor with -metrics-addr
# (which alone turns the span recorder on), -trace-out and -slo, scrape
# /traces, /metrics, /fleet and /slo, and fail unless the kept set is
# non-empty, the sampler's kept counter agrees, the -trace-out file
# holds the same trace IDs, every shard has verdict latencies on
# /metrics and a row on /fleet, and /slo lists the six standard
# objectives. It runs once at one shard and once with -shards 2 over a
# checkpoint root and an -incident-dir, where /incidents must list its
# bundles. CI runs this in the bench job so the pipeline stays wired,
# not just unit-tested.
trace-smoke:
	./scripts/trace_smoke.sh

# Short fuzzing pass over the persistence layer; CI runs the seed corpus
# via plain `go test`, this target digs deeper locally.
fuzz:
	$(GO) test -run FuzzLoadRHMD -fuzz FuzzLoadRHMD -fuzztime 30s ./internal/core/
	$(GO) test -run FuzzLoadCheckpoint -fuzz FuzzLoadCheckpoint -fuzztime 30s ./internal/checkpoint/

# Durability suite: every-byte-boundary crash injection (single and
# batched appends), corruption fallback, sealed model files, the
# SIGKILL-and-restart recovery test, withheld undurable verdicts, the
# group commit's durable-before-visible proof and rhmd-monitor's
# black-box crash dump, under -race.
crashtest:
	$(GO) test -race -run 'Crash|Corrupt|Kill|Torn|Fallback|Trailer|BlackBox|Undurable|GroupCommit' -v ./internal/checkpoint/ ./internal/monitor/ ./cmd/rhmd-monitor/

# Kill-a-shard chaos suite, under -race: scripted shard deaths (dead
# disk, wedged queue, crashed worker) plus restore-under-load, proving
# surviving shards keep serving, the dead shard restarts from its own
# checkpoint with zero acked-verdict loss, and the health endpoint
# reports the degraded→serving transition. The crash scenario writes
# its final fleet-health JSON to FLEET_HEALTH_OUT (CI uploads it).
chaostest:
	FLEET_HEALTH_OUT=$(CURDIR)/fleet-health.json \
	INCIDENT_OUT=$(CURDIR)/results/incidents \
		$(GO) test -race -run 'Chaos|RestoreUnderLoad|FleetSingleShard' -v ./internal/fleet/

# Live drift-guard suite, under -race: the online evade→drift→retrain→
# hot-swap→canary loop end to end (zero acked-verdict loss), the
# injected-canary-regression rollback, swap-under-load and the
# every-byte-boundary crash sweep over the pool-swap WAL entry, the
# SIGKILL-mid-swap restart, and fleet-wide swap convergence. The e2e run
# writes its machine-readable outcome to DRIFT_REPORT_OUT (CI uploads it).
drifttest:
	DRIFT_REPORT_OUT=$(CURDIR)/drift-report.json \
	INCIDENT_OUT=$(CURDIR)/results/incidents \
		$(GO) test -race -v ./internal/driftguard/
	$(GO) test -race -run 'Swap' -v ./internal/monitor/ ./internal/fleet/
	$(GO) test -race -run 'RetrainPool' -v ./internal/game/

# Reproduction pin: a fresh full-scale, seed-42 rhmd-bench run must
# rewrite every committed results/*.csv byte for byte; the target names
# each file that differs (about 3 minutes on 2 vCPUs; CI runs it in the
# reprotest job). See scripts/reprotest.sh.
reprotest:
	./scripts/reprotest.sh

check: fmt vet lint build race

clean:
	$(GO) clean ./...
