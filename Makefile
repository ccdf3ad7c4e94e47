GO ?= go

.PHONY: tier1 race chaos linearize reconfig shard wan fuzz-short bench-pipeline bench-ec benchmark-smoke obs-smoke staticcheck loc

# Tier-1 verification: every Go file is gofmt-clean, everything vets,
# builds, and every test passes. benchmark/ is its own module, so it is
# vetted separately: a change to an API it compiles against fails here, not
# only in benchmark-smoke.
tier1:
	@unformatted="$$(find . -name '*.go' ! -path './.bench_build/*' | xargs gofmt -l)"; \
		if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./... && $(GO) build ./... && $(GO) test ./...
	cd benchmark && $(GO) vet .

# Race-detector pass over the packages on the write hot path (internal/deploy
# holds the per-put cost test that drives the whole of it) and on the takeover
# path (internal/kv's recovery and applied-mark tests, internal/wal's
# reconcile), the gray-failure machinery, the erasure kernels, and the
# open-loop load generator with its knee search.
race:
	$(GO) test -race ./internal/rdma/... ./internal/repmem/... ./internal/kv/... ./internal/wal/... ./internal/deploy/... ./internal/faultrdma/... ./internal/election/... ./internal/erasure/...
	$(GO) test -race -run 'TestPoisson|TestOpenLoop|TestCapacitySweep' ./internal/bench/

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

# Online reconfiguration suite: the repmem reconfigure, catch-up,
# dirty-tracker and epoch-commit unit tests, the elector membership-update
# and member-change suspicion tests, the CPU node's ambiguous-commit stand-down and follower config
# refresh, and the cluster-level rolling replacement / linearizability /
# same-handles / no-election / fencing / backup-straddle scenarios, under
# the race detector.
reconfig:
	$(GO) test -race -timeout 5m -run 'TestReconfigure|TestReplace|TestRestripe|TestMembership|TestConfig|TestCatchUp|TestDirtyTracker' ./internal/repmem/
	$(GO) test -race -run 'TestUpdateMembers|TestAwaitSuspicionRestartsOnMemberChange' ./internal/election/
	$(GO) test -race -timeout 5m -run 'TestReconfigure|TestRefreshConfig' ./internal/core/
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
# BENCHTIME=1x turns this into a correctness pass.
BENCHTIME ?= 2s
bench-ec:
	$(GO) test -run '^$$' -bench 'BenchmarkEncode|BenchmarkReconstruct|BenchmarkDecode|BenchmarkMulAddSlice' -benchtime $(BENCHTIME) ./internal/erasure/
	$(GO) test -run '^$$' -bench 'BenchmarkECApply|BenchmarkECRead' -benchtime $(BENCHTIME) ./internal/repmem/

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

# Size of the tree, the two numbers every CHANGES.md entry carries:
# non-test Go lines outside benchmark/, and the settable values — exported
# fields of the five configuration structs (as `go doc` prints them; a line
# declaring several names counts each) plus the two daemons' flags.
KNOB_STRUCTS = .:Config .:WANConfig ./internal/repmem:Config ./internal/kv:Config ./internal/deploy:Params
loc:
	@echo "non_test_loc $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@{ for s in $(KNOB_STRUCTS); do $(GO) doc $${s%%:*} $${s##*:}; done \
		| awk '/^\t[A-Z]/ { i = 1; while ($$i ~ /,$$/) i++; n += i } END { print n }'; \
	   grep -hoE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/siftd/main.go cmd/memnoded/main.go | wc -l; } \
		| awk '{ n += $$1 } END { print "config_knobs " n }'

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
