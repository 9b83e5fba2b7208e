GO ?= go

.PHONY: ci fmt vet build test test-analysis test-interp test-bisect test-daemon test-cluster test-memo test-transport test-experiments test-e2ebench bench bench-compare profile

# Everything CI runs, in order; fails fast. Every -fuzz pass below fuzzes
# for 10 s and spends at most 2 s minimizing an input it finds: at Go's
# default minimize time of 60 s, one such input could use up the pass.
ci: fmt vet build test test-analysis test-interp test-bisect test-daemon test-cluster test-memo test-transport test-experiments test-e2ebench bench

# The per-query analyses get repeated race passes over their differentials:
# query-local availability against a full cfa.Analyze, the index-based CFG
# and dominators against the map-keyed references, count-once DCE against
# the recount-per-iteration reference (also on ids past the module's
# bound), the optimizer's pinned output digest, dead-block elimination on
# a dangling branch target, and the content-keyed uniforms memo, which
# every engine worker shares. Then a short fuzz of the CFG differential
# over decoded functions of up to 64 blocks, and short fuzzes of the SPIR-V
# binary decoder and the assembler, each seeded with the reference corpus:
# no input panics, and an accepted one reaches a decode→encode (or
# parse→disassemble) fixpoint.
test-analysis:
	$(GO) test -race -count=3 -run 'AvailableAtMatchesInfo|GraphMatchesReference|DCEMatchesReference|DCEIdsAboveBound|OutputPinned|DeadBlocksDanglingTarget|UniformsHash' ./internal/spirv/cfa/ ./internal/opt/ ./internal/runner/
	$(GO) test -run '^$$' -fuzz=FuzzGraphMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/spirv/cfa/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeBytes -fuzztime=10s -fuzzminimizetime=2s ./internal/spirv/
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=10s -fuzzminimizetime=2s ./internal/spirv/asm/

# The interpreter gets repeated race passes over the VM/tree-walker
# differential (the VM stores into cells in place, bump-allocates frame
# values and access-chain pointers per pixel, gives entry-block variables
# cells owned by recycled frames and clears only the frame slots that can
# be read before written; the tree-walker clones and makes a fresh cell per
# OpVariable; every image and fault must still match), then the per-render
# allocation bound, which only builds without -race, then a short fuzz of
# the same differential over fuzzed corpus variants and their compiles by
# every target, injected miscompilations included.
test-interp:
	$(GO) test -race -count=5 -run 'VMDiff' ./internal/interp/
	$(GO) test -count=1 -run 'RenderAllocBound' ./internal/interp/
	$(GO) test -run '^$$' -fuzz=FuzzVMMatchesTree -fuzztime=10s -fuzzminimizetime=2s ./internal/interp/

# The bisection oracle gets its own race pass: the determinism property
# (FirstBad identical at any worker count or cache temperature)
# plus the torn-journal /bisect resume and the cluster-sharded bisect merge.
test-bisect:
	$(GO) test -race -shuffle=on ./internal/bisect/...
	$(GO) test -race -count=1 -run 'Bisect' ./internal/service/... ./internal/cluster/...

# The daemon's durability layers get a dedicated race pass on top of the
# repo-wide one: -shuffle varies the journal/queue interleavings between
# runs, which is where torn-tail and drain races would hide. Then repeated
# runs of the recovery tests: a create whose record cannot be journaled
# lists no job, a recovered campaign reports the status it had, and a
# campaign that finds no bugs still finishes, bisects and recovers. Then
# the store's fault and power-cut tests: injected ENOSPC, short writes,
# fsync errors and torn tails surface as errors and counters, the blob log
# is fsynced before the journal at every sync point, and a campaign resumed
# after a simulated power cut ends with the uninterrupted run's buckets.
# Then 20 race runs of the concurrent put/get tests. Then short fuzzes of
# journal replay over arbitrary bytes (an open fails or keeps every
# complete record, and an append after it replays with a higher seq), of
# blob log recovery (every indexed blob reads back, a reopen indexes the
# same, a put after recovery survives) and of the service's replay of
# arbitrary journals (an error or a stable recovery, never a panic).
test-daemon:
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./internal/service/... ./internal/store/...
	$(GO) test -race -count=3 -run 'FailsWithoutJournal|RecoversDoneCampaign|CampaignWithoutBugs' ./internal/service/
	$(GO) test -race -count=3 -run 'StoreFaults|StoreCreateFaults|SyncOrder|TornLastRecord|ImportsParentStore|PowerCutResume' ./internal/store/
	$(GO) test -race -count=20 -run 'ConcurrentPut' ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzJournalReplay -fuzztime=10s -fuzzminimizetime=2s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzBlobLogRecover -fuzztime=10s -fuzzminimizetime=2s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzMachineReplay -fuzztime=10s -fuzzminimizetime=2s ./internal/service/

# The distributed layer gets the same treatment, plus repeated runs of the
# tests of the journal both roles share (a store one role started, the
# other finishes; forged shard results refused unjournaled; no job listed
# whose create was not journaled), plus the real-process cluster e2e: a
# coordinator with worker processes (one SIGKILLed and replaced
# mid-campaign) must merge to buckets bitwise-identical to a standalone
# daemon's.
test-cluster:
	$(GO) test -race -shuffle=on ./internal/cluster/...
	$(GO) test -race -count=3 -run 'JournalPortableAcrossRoles|RejectsForgedResults|FailsWithoutJournal|KilledMidMerge' ./internal/cluster/
	$(GO) test -count=1 -run 'TestSpirvdCluster|TestSpirvdCoordinatorLocalNodes' .

# The pipelined transport gets a dedicated race pass: the bitwise-identity
# matrix (1 and 3 nodes must merge the same buckets and bisect set as a
# single node, at small explicit shard caps and at the defaults),
# lease-steal and kill-mid-prefetch fault injection with the duplicate-report
# guard, the gzip wire accounting round trip, the /cluster/sync status codes,
# the jittered idle backoff ladder, the pooled gzip codec (pooled bodies
# byte-identical to fresh coders', from concurrent subtests), the
# Accept-Encoding negotiation and the default shard caps' lease sizes. Then
# the codec's per-body allocation bound, which only builds without -race,
# and a short fuzz of /cluster/sync request decoding through the pooled
# decoder.
test-transport:
	$(GO) test -race -count=1 -run 'Pipeline|Prefetch|LeaseSteal|Transport|SyncStatus|Backoff|Gzip|Codec|AcceptEncoding|DefaultShards' ./internal/cluster/... ./internal/service/
	$(GO) test -count=1 -run 'GzipAllocBound' ./internal/service/
	$(GO) test -run '^$$' -fuzz=FuzzSyncRequest -fuzztime=10s -fuzzminimizetime=2s ./internal/cluster/
	$(GO) test -count=1 -run 'TestSpirvdClusterKillRejoin' .

# The persistent memo tier gets its own race pass: the segment recovery
# suite (with -shuffle varying the spill/evict interleavings), the runner's
# key-derivation and payload codecs, the service-level memo temperature
# identity, and the cluster warm-sync handshake. The runner's in-memory
# layers get repeated race passes over concurrent fill, wait and eviction,
# and over a canceled fill whose waiter retries. Then short fuzzes of the
# segment-line fast path against encoding/json, and of recovery over
# arbitrary segment bytes (plus a stale index.json): the reopened store
# serves exactly the complete records before each segment's first bad line.
# Last, a short fuzz of the result payload decoder, which reads bytes from
# disk and from cluster memo sync: no input panics, and an accepted payload
# re-encodes byte-identically.
test-memo:
	$(GO) test -race -shuffle=on ./internal/memostore/...
	$(GO) test -race -count=1 -run 'Memo' ./internal/runner/... ./internal/service/... ./internal/cluster/...
	$(GO) test -race -count=20 -run 'CacheHammer|RunAllHammer|WithdrawRetry' ./internal/runner/
	$(GO) test -run '^$$' -fuzz=FuzzFastLineMatchesJSON -fuzztime=10s -fuzzminimizetime=2s ./internal/memostore/
	$(GO) test -run '^$$' -fuzz=FuzzMemostoreRecover -fuzztime=10s -fuzzminimizetime=2s ./internal/memostore/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeResult -fuzztime=10s -fuzzminimizetime=2s ./internal/runner/

# gfauto's experiments run on the service's step functions: repeated race
# passes over the pinned digest of the paper tables' text (at 1 and 4
# workers), the campaign-determinism test (the three campaigns and their
# reduction records identical at 1, 4, 16 and GOMAXPROCS workers) and the
# 1-minimality of every reduction the experiments make. Then short fuzzes
# of what the reducer relies on (Definition 2.5): any subsequence of a
# fuzzed sequence replays without a panic to a valid module, and a
# candidate sandwiched between an earlier query and its effective set
# replays to the same context, which is what lets ddmin answer it without
# a replay; the fuzzer's seeded RNG draws math/rand's stream for any seed;
# and the crash test the reducer and bisection decide by the defect scan
# alone gives Run's verdict at every release of every target. Last, the
# serialized sequence as untrusted input: arbitrary bytes that decode
# replay without a panic to a valid module, and the one-pass sequence and
# report codec decodes and writes exactly what encoding/json does. Then the
# paper's central invariant (Theorem 2.6) on arbitrary seeds and pass
# budgets of up to 200 passes: a variant, and any masked subsequence of its
# sequence, validates and renders exactly like its reference.
test-experiments:
	$(GO) test -race -count=3 -run 'ExperimentsOutputPinned|CampaignDeterministicAcrossWorkers|ReducedCasesOneMinimal' ./internal/experiments/
	$(GO) test -run '^$$' -fuzz=FuzzReplaySubsequence -fuzztime=10s -fuzzminimizetime=2s ./internal/fuzz/
	$(GO) test -run '^$$' -fuzz=FuzzSeededRandMatchesMathRand -fuzztime=10s -fuzzminimizetime=2s ./internal/fuzz/
	$(GO) test -run '^$$' -fuzz=FuzzEffectiveSetSandwich -fuzztime=10s -fuzzminimizetime=2s ./internal/fuzz/
	$(GO) test -run '^$$' -fuzz=FuzzScanOracleMatchesRun -fuzztime=10s -fuzzminimizetime=2s ./internal/target/
	$(GO) test -run '^$$' -fuzz=FuzzUnmarshalReplay -fuzztime=10s -fuzzminimizetime=2s ./internal/fuzz/
	$(GO) test -run '^$$' -fuzz=FuzzSequenceCodecMatchesJSON -fuzztime=10s -fuzzminimizetime=2s ./internal/fuzz/
	$(GO) test -run '^$$' -fuzz=FuzzVariantPreservesSemantics -fuzztime=10s -fuzzminimizetime=2s ./internal/fuzz/

# The benchmark is its own module: vet it and run its tests, which drive
# both spirvd roles through its daemon interface and read the reduction
# records back from their journals.
test-e2ebench:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One pass over every benchmark as a smoke test; the table/figure benches
# assert the paper's comparative shape even at -short scale. -benchmem
# records allocs/op and B/op so allocation regressions are visible in the
# same trajectory JSONs as the timing ratios. -p 1 serializes the package
# binaries: without it, go test builds and runs sibling packages while the
# root package's benchmarks execute, and the contention skews every
# cold/warm ratio the guards below care about.
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime=1x -benchmem -p 1 ./...

# Run the reduction/resume/batching/interpreter benchmarks and fail if any
# speedup metric (parallel reduction over serial; batched RunAll over a
# per-target compile loop; the register VM over the tree-walker; 3 cluster
# nodes over 1)
# regresses below 0.75x its value in the committed BENCH_pr10.json
# trajectory point — loose enough for machine noise, tight enough to catch
# a disabled cache, compile sharing gone, or the VM degenerating to
# tree-walker speed. A second pass
# guards absolute parallel-reduction time: ns/op must not blow past 1.5x
# the recorded value. The ratio
# metrics are the tight guards (they cancel machine speed); the absolute
# bounds are backstops against wholesale regressions that leave the
# internal ratios intact. The third pass bounds the journal resume of
# BenchmarkServiceResumeCampaign at 1.5x its recorded time: a resume that
# re-runs journaled work takes ten times as long. The fourth bounds the
# warm pass of BenchmarkBisectCampaign at 1.5x its recorded time per case:
# bisect probes that stop reusing the shared compile cache make the warm
# pass as slow as a cold one (its cold/warm ratio is not guarded: the
# scan-decided crash probes made the cold pass fast). The fifth bounds the
# warm leg of BenchmarkMemoWarmCampaign at 1.5x its recorded time per test,
# a backstop against slow memo reads: a warm repeat that runs its
# executions instead takes about 1.6x as long, too close to the bound to be
# caught on every run, and its warm-hit-frac below always catches it (the
# cold/warm ratio is not guarded: it moves with every cost of the cold
# leg). The sixth keeps the dedup-frac of BenchmarkClusterCampaign, the
# share of referenced blob bytes its 1-node leg did not move, above 0.95x
# baseline: a worker that fetches blobs it already holds reads 0. Two
# hit-fraction passes follow: the cold cache-hit fraction of
# BenchmarkBisectCampaign falling
# below 0.95x baseline means bisect probes stopped reusing compile keys,
# and the warm-hit-frac of BenchmarkMemoWarmCampaign falling below 0.95x
# means the persistent memo tier stopped serving a warm repeat from disk.
# The last pass guards the pipelined transport's node scaling: the
# node-speedup of BenchmarkClusterPipeline (1-node over 3-node time under
# injected latency) below 0.75x baseline means prefetch or shard dispatch
# stopped overlapping; its wire economy is bounded inside the benchmark.
# Every guard runs and prints its verdict, even after one fails; the target
# fails at the end if any did.
BENCH_GUARDS = \
	"" \
	"-metric ns/op -mode max -tolerance 1.5 -only BenchmarkRunnerParallelReduce" \
	"-metric journal-resume-ms -mode max -tolerance 1.5 -only BenchmarkServiceResumeCampaign" \
	"-metric warm-us/case -mode max -tolerance 1.5 -only BenchmarkBisectCampaign" \
	"-metric warm-us/test -mode max -tolerance 1.5 -only BenchmarkMemoWarmCampaign" \
	"-metric dedup-frac -mode min -tolerance 0.95 -only BenchmarkClusterCampaign" \
	"-metric hit-frac -mode min -tolerance 0.95 -only BenchmarkBisectCampaign" \
	"-metric warm-hit-frac -mode min -tolerance 0.95 -only BenchmarkMemoWarmCampaign" \
	"-metric node-speedup -mode min -tolerance 0.75 -only BenchmarkClusterPipeline"

bench-compare:
	$(GO) test -short -run '^$$' -bench 'Reduce|Resume|RunAll|InterpVM|Cluster|Bisect|Memo' -benchtime=1x -benchmem . \
		| tee /dev/stderr | awk -f scripts/bench2json.awk > /tmp/bench-current.json
	@failed=0; \
	for guard in $(BENCH_GUARDS); do \
		echo "guard: $${guard:--metric speedup}"; \
		if $(GO) run ./scripts/benchcompare -baseline BENCH_pr10.json -current /tmp/bench-current.json $$guard; then \
			echo "  PASS"; \
		else \
			echo "  FAIL"; failed=$$((failed + 1)); \
		fi; \
	done; \
	if [ $$failed -gt 0 ]; then echo "bench-compare: $$failed guard(s) failed"; exit 1; fi; \
	echo "bench-compare: every guard passed"

# CPU-profile the parallel-reduction campaign benchmark and print the top-10
# functions by flat time — the quick answer to "where do campaign cycles go".
profile:
	$(GO) test -short -run '^$$' -bench 'RunnerParallelReduce' -benchtime=1x \
		-cpuprofile /tmp/spirvfuzz-cpu.pprof -o /tmp/spirvfuzz-bench.test .
	$(GO) tool pprof -top -nodecount=10 /tmp/spirvfuzz-bench.test /tmp/spirvfuzz-cpu.pprof
