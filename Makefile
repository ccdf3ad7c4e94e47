GO ?= go

.PHONY: tier1 race chaos linearize reconfig shard wan fuzz-short bench-pipeline bench-ec bench-json bench-baseline bench-gate benchmark-smoke capacity obs-smoke staticcheck

# Tier-1 verification: everything vets, builds, and every test passes.
tier1:
	$(GO) vet ./... && $(GO) build ./... && $(GO) test ./...

# Race-detector pass over the packages on the write hot path (internal/deploy
# holds the per-put cost test that drives the whole of it) and the
# gray-failure machinery.
race:
	$(GO) test -race ./internal/rdma/... ./internal/repmem/... ./internal/kv/... ./internal/deploy/... ./internal/faultrdma/... ./internal/election/...

# Chaos suite: fail-stop and gray-failure schedules against the in-process
# cluster, twice, under the race detector. The 'TestChaos' pattern also
# covers the TestChaosLinearize* scenarios.
chaos: linearize
	$(GO) test -race -count=2 -run 'TestChaos' .

# Linearizability: checker unit tests, client retry regression tests, and
# the chaos linearizability scenarios, under the race detector with a
# bounded duration.
linearize:
	$(GO) test -race -timeout 5m ./internal/linearize/
	$(GO) test -race -timeout 10m -run 'TestRetriable|TestClient|TestAmbiguous|TestNoCoordinatorWithoutSends|TestChaosLinearize' .

# Online reconfiguration suite: the repmem state-transfer/epoch-commit unit
# tests, the elector membership-update test, and the cluster-level rolling
# replacement / fencing / backup-straddle scenarios, under the race detector.
reconfig:
	$(GO) test -race -timeout 5m -run 'TestReplace|TestRestripe|TestMembership|TestConfig' ./internal/repmem/
	$(GO) test -race -run 'TestUpdateMembers' ./internal/election/
	$(GO) test -race -timeout 10m -run 'TestReconfig|TestBackupReadStraddles' .

# Horizontal sharding suite: the rendezvous shard-map unit tests, the
# kv idempotent-batch regression tests, and the cluster-level router /
# fan-out / shared-budget / backup-pool / sharded-chaos scenarios, under
# the race detector.
shard:
	$(GO) test -race -timeout 5m ./internal/shard/ ./internal/backuppool/
	$(GO) test -race -timeout 5m -run 'TestPutBatchIdem' ./internal/kv/
	$(GO) test -race -timeout 10m -run 'TestShard|TestChaosLinearizeSharded' .

# WAN resilience suite: the netsim impairment-model and wantransport FEC
# unit tests, the faultrdma per-class composition tests, and the
# cluster-level WAN scenarios — steady-replica never-suspect and the
# linearizability-checked 5%-loss + failover chaos run — under the race
# detector (DESIGN.md §16).
wan:
	$(GO) test -race -timeout 5m ./internal/netsim/ ./internal/wantransport/
	$(GO) test -race -timeout 5m -run 'TestDropSchedule|TestDelaySchedule|TestCorruptSchedule|TestFaultSchedule' ./internal/faultrdma/
	$(GO) test -race -timeout 10m -run 'TestWAN|TestChaosLinearizeWAN' -v .

# Short fuzz passes: the WAL entry decoder (parses whatever bytes a crashed
# or corrupt memory node holds during recovery) and the word-parallel
# GF(256) kernels (differential against the scalar gfMul reference).
fuzz-short:
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/erasure/ -run '^$$' -fuzz FuzzGFKernels -fuzztime 30s

# Pipelined-transport throughput benchmark (records EXPERIMENTS.md numbers).
bench-pipeline:
	$(GO) test -run '^$$' -bench BenchmarkPipelinedPut -benchtime 2s .

# Erasure-kernel benchmarks: encode/reconstruct/decode MB/s and allocs at
# 4 KiB / 64 KiB / 1 MiB blocks, plus the repmem steady-state EC paths.
# BENCHTIME=1x (used by CI's race smoke) turns this into a correctness pass.
BENCHTIME ?= 2s
bench-ec:
	$(GO) test $(BENCHFLAGS) -run '^$$' -bench 'BenchmarkEncode|BenchmarkReconstruct|BenchmarkDecode|BenchmarkMulAddSlice' -benchtime $(BENCHTIME) ./internal/erasure/
	$(GO) test $(BENCHFLAGS) -run '^$$' -bench 'BenchmarkECApply|BenchmarkECRead' -benchtime $(BENCHTIME) ./internal/repmem/

# Benchmark trajectory: runs the EC and cluster benchmarks and emits
# BENCH_$(PR).json with encode/reconstruct MB/s, put throughput, read
# latency percentiles, put throughput under rolling node replacement,
# open-loop knee throughput behind the shard router at 1/2/4 groups, WAN
# put throughput/p99 at 0/5/15% sustained loss, and the §17 capacity
# block (knee + latency-at-knee + cost-per-million-ops for the plain,
# sharded, and WAN deployments). Bump PR per PR: `make bench-json PR=11`.
PR ?= 10
bench-json:
	$(GO) run ./cmd/benchjson -pr $(PR)

# Re-anchor the tracked regression baseline after an INTENTIONAL
# performance change: regenerates the benchmark document straight into
# bench-baseline.json (commit the result alongside the change that
# explains it).
bench-baseline:
	$(GO) run ./cmd/benchjson -out bench-baseline.json

# Benchmark regression gate (CI: bench-gate job): a fresh short run
# diffed against the tracked bench-baseline.json with per-metric
# tolerance bands; exits nonzero on regression. Bands are wide (±60%
# default here) because the gate run is short and CI runners are noisy —
# it exists to catch collapses and vanished probes, not 5% drift. The
# knee/throughput metrics carry the signal. Three metric families get
# wider bands still (-tol keys are longest-PREFIX matched against the
# dotted flattened paths): latency-at-knee (a short gate run can land
# its knee at a different rate, and queueing delay at the knee is
# extremely sensitive to that), microsecond-scale read percentiles
# (base ~8µs; one scheduler preemption triples them), and the
# replacement-window probes.
BENCH_GATE_TOL ?= 0.6
bench-gate:
	$(GO) run ./cmd/benchjson -out /tmp/sift-bench-gate.json -duration 700ms
	$(GO) run ./cmd/benchcmp -baseline bench-baseline.json -new /tmp/sift-bench-gate.json \
		-tolerance $(BENCH_GATE_TOL) \
		-tol capacity.plain.p50_ms_at_knee=2.5 -tol capacity.plain.p99_ms_at_knee=4 -tol capacity.plain.p999_ms_at_knee=4 \
		-tol capacity.shard_4g.p50_ms_at_knee=2.5 -tol capacity.shard_4g.p99_ms_at_knee=4 -tol capacity.shard_4g.p999_ms_at_knee=4 \
		-tol capacity.wan_5pct.p50_ms_at_knee=2.5 -tol capacity.wan_5pct.p99_ms_at_knee=4 -tol capacity.wan_5pct.p999_ms_at_knee=4 \
		-tol wan_put_p99_ms=1.5 -tol read_p99_us=4 -tol backup_read_p99_us=4 \
		-tol put_ops_per_sec_during_replace=1.5 -tol replacements_during_probe=1.5 \
		-tol puts_skipped_no_coordinator=20

# Benchmark smoke: benchmark/ is its own module, outside tier-1, so this is
# the only place CI builds it. Vets and tests the module, then runs three
# short workloads through the same run.sh the benchmark driver uses and
# fails unless every result line (the JSON line each workload ends with)
# reports "correct":true and "failed":0. It also holds put_sat to at most
# 5.0 node requests per put (repmem.node_ops_per_put, a count: 3 log-slot
# requests + 3 apply requests per BATCH, about 3.5 at saturation): an apply
# that goes back to a request per record, or splits the block and its
# checksum entry into two requests, or drops the KV block alignment, trips
# it. Everything the job writes stays under .bench_build/.
BENCHMARK_SMOKE_OUT ?= .bench_build/smoke.out
benchmark-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .
	mkdir -p $(dir $(BENCHMARK_SMOKE_OUT))
	bash benchmark/run.sh --workload put_solo,delay_put,put_sat --seed 1 --seconds 2 --trace 0 > $(BENCHMARK_SMOKE_OUT)
	@grep '^{' $(BENCHMARK_SMOKE_OUT)
	@test "$$(grep -c '^{' $(BENCHMARK_SMOKE_OUT))" -eq 3
	@! grep '^{' $(BENCHMARK_SMOKE_OUT) | grep -v '"correct":true,.*"failed":0,'
	@awk '$$1 == "put_sat" && $$2 == "repmem.node_ops_per_put" { print; seen = 1; if ($$3 > 5.0) over = 1 } \
		END { if (!seen || over) { print "put_sat repmem.node_ops_per_put missing or above 5.0"; exit 1 } }' $(BENCHMARK_SMOKE_OUT)

# Capacity smoke: the open-loop load generator and baseline-comparator
# unit tests (Poisson rate accuracy, stall-as-queue-latency, knee
# detection, regression/tolerance/missing-metric handling) plus a short
# real-cluster sweep, under the race detector (DESIGN.md §17).
capacity:
	$(GO) test -race -timeout 5m -run 'TestPoisson|TestOpenLoop|TestCapacity|TestFlatten|TestCompare' ./internal/bench/...

# Observability smoke: both daemons build, the obs package tests pass, and
# the in-process cluster serves /metrics, /healthz, /statusz, and /events
# with the expected content (TestObsSmoke scrapes them over HTTP).
obs-smoke:
	$(GO) build -o /tmp/sift-obs-smoke-siftd ./cmd/siftd
	$(GO) build -o /tmp/sift-obs-smoke-memnoded ./cmd/memnoded
	$(GO) test ./internal/obs/
	$(GO) test -run 'TestObs' -v .

# Static analysis beyond go vet. Skips gracefully when the staticcheck
# binary is not installed (CI installs it; see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
