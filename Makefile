GO ?= go
FUZZTIME ?= 15s

.PHONY: tier1 tier2 build vet test race bench fuzz count

# tier1 is the gate every PR must keep green: full build, vet, and the
# test suite under the race detector. The snapshot/forwarding tests in
# core and thor run explicitly with -count 1 so the checkpoint machinery
# is always exercised fresh under -race, never served from the cache;
# the chaos/retry/quarantine tests likewise, because the fault-tolerance
# layer is all goroutine coordination (watchdogs, pull queue, breaker).
# The telemetry line pins the observability invariants: the registry's
# concurrent hot path, the exposition format, and the differential proof
# that instrumentation never changes LoggedSystemState. The netchaos
# line is the partition-tolerance pin: sharded campaigns crossing a
# seeded hostile network (drops, dup deliveries, truncation, full and
# asymmetric partitions, worker auth) must stay byte-identical to solo.
# The proctarget line runs the whole package — the guided-vs-stepped
# arrival differential and campaign conformance, the fallbacks, the
# trace cap, the leak test — fresh: its tests fork and ptrace real
# children, and skip themselves where ptrace is not permitted.
# The pruning line is the def-use soundness pin: the recorder's unit and
# property tests, and every differential against the forwarding-off
# oracle — the campaign matrix, the random programs, resume and shards.
# The decode line is the read side's pin: the row decoder against
# encoding/json on canonical, mutated and hostile blobs — the relative
# form against the absolute one — the streamed pass's order, the analysis
# against the materialise-everything algorithm it replaced, and the
# relative rows' differential: solo, resumed, forwarding-off and sharded
# campaigns storing the same bytes, under their size budgets, and
# classifying as the whole states do.
# The scan line is the scan path's pin, fresh: the streamed capture and
# update against the layout-walking oracle (field order, widths, read-only
# cells, zero allocations), the bit stream they ride on and the vector's
# byte form with its hostile length headers, the TAP's transition table,
# the controller's in-place reset and the board's reads through them.
# The closed-loop line is the control loop's pin, fresh: the list-based port
# set against the map-based oracle (values, contents, drained windows,
# clones), the burst's precondition from both sides with the watchdog and
# the budget on every cycle, a closed-loop experiment's allocations at 100
# and at 1,000 iterations, the simulators' buffer contract at the port, the
# replay log kept only for a simulator that needs it, and the horizon
# guard's refresh rate.
# The hand-over line is the pin of what passes between board and store,
# fresh: the sink's bound in rows against a stalled log device (what is
# admitted, what waits, the oversize commit, one barrier per group, a kill
# at the bound resumed to the full run's bytes), the stalled merge behind
# it, and a pruned experiment's record — "the reference plus these bits" —
# against the whole state it stands for, hostile differences included.
# The server line includes the job state machine's table — cancel, pause,
# graceful and hard restart, a dying store — over both row sources, solo
# and sharded in-process.
# bench/ is a module of its own that `./...` skips, and it compiles
# against core's exported surface: build and vet it here (its tests are
# the benchmark-only PR's, ROADMAP item 5).
tier1:
	$(GO) build ./...
	$(GO) build -C bench -o /dev/null ./... && $(GO) vet -C bench ./...
	$(GO) vet ./internal/core/ ./internal/thor/
	$(GO) vet ./...
	$(GO) test -race ./internal/core/ ./internal/thor/ ./internal/scifi/ . -run 'Snapshot|Forward' -count 1
	$(GO) test -race ./internal/thor/ ./internal/trigger/ . -run 'FastPath|RunUntilFast|StepBurst' -count 1
	$(GO) test -race ./internal/core/ ./internal/chaos/ . -run 'Chaos|Retry|Quarantine|Watchdog|Panic|InvalidRun|DrainsAndFlushes' -count 1
	$(GO) test -race ./internal/telemetry/ . -run 'Telemetry|Registry|Prometheus|Handler|Progress' -count 1
	$(GO) test -race ./internal/server/ ./internal/core/ ./internal/campaign/ -run 'Differential|Fleet|Tenant|Admission|Cancel|Submit|JobLifecycle|WorkersExhausted' -count 1
	$(GO) test -race ./internal/shard/ ./internal/core/ . -run 'Shard|Partition|Coalesce|Lease|ReportFrame|Protocol|PlanHash' -count 1
	$(GO) test -race ./internal/shard/ ./internal/chaos/ -run 'NetChaos|NetRoundTripper|NetMaxFaults|NetDeterministic|Transport|Unauthorized|Delivery|Churn' -count 1
	$(GO) test -race ./internal/proctarget/ ./internal/core/ -run 'Proc|Framework|TargetRegistry|TargetDeterministic' -count 1
	$(GO) test -race . ./internal/thor/ ./internal/core/ ./internal/shard/ -run 'Prune|Pruning|DefUse|RegUses' -count 1
	$(GO) test -race ./internal/campaign/ ./internal/analysis/ -run 'Decode|EachExperiment|AnalysisDifferential|Relative|RowBytesBudget' -count 1
	$(GO) test -race ./internal/thor/ ./internal/bitvec/ ./internal/scanchain/ ./internal/scifi/ -run 'Scan|Marshal|Stream|TAP|ControllerReset' -count 1
	$(GO) test -race ./internal/thor/ ./internal/scifi/ ./internal/envsim/ . -run 'Port|Burst|ClosedLoop|Exchange|HorizonGuard' -count 1
	$(GO) test -race ./internal/campaign/ ./internal/core/ ./internal/shard/ . -run 'Sink|Handover|PrunedRecord|StalledMerge' -count 1
	$(GO) test -race ./...

# tier2 is the crash-safety suite: the WAL crash-injection and resume
# equivalence tests, the golden end-to-end report, plus a short fuzz
# smoke of the SQL front end, the two byte formats recovery reads, the
# two the coordinator reads off the network and the stored row's blobs.
# The -race line runs the group-commit durability cases fresh: cursor
# saves are commits in the sink's queue, applied by another goroutine,
# and these are the tests that kill a campaign between any two of them,
# lose a queued save's error, or damage the snapshot image.
tier2:
	$(GO) test -race ./internal/sqldb/ ./internal/campaign/ ./internal/core/ -run 'Snapshot|CheckpointFailing|HostileSizes|Sink|SeqRanges|EveryLogCut|ResumeReproduces' -count 1
	$(GO) test ./internal/sqldb/ -run 'WAL|Crash|Checkpoint|Stale|OpenAt|Replay' -count 1
	$(GO) test ./internal/campaign/ -run 'Checkpoint|RecoverCursor|Sink' -count 1
	$(GO) test ./internal/core/ -run 'Resume|Pause' -count 1
	$(GO) test ./cmd/goofi/ -run 'Resume' -count 1
	$(GO) test . -run 'Golden' -count 1
	$(MAKE) fuzz FUZZTIME=5s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the Go microbenchmarks — the campaign ones at the root, the
# scan chain's capture and update and the vector's byte form where they
# live — the PID campaign three times for stable medians, and one cold
# closed-loop experiment on one CPU (ns/cycle beside the bare kernel's is
# what the I/O ports and the exchange cost; allocs/op is the exchange's),
# a row's way from the scheduler to the store at the default cursor cadence
# (ns and allocations per row, a pruned experiment's and an emulated one's;
# the barriers make the time the disk's, the allocations are the code's)
# and the emulator on a derailed run's zeroed memory (ns/cycle).
# The campaign benchmark — end-to-end and per-layer metrics through the
# real binaries, what every performance claim is judged on — is
# `sh bench/run.sh` (BENCHMARK.json, bench/README.md).
bench:
	$(GO) test . -run xxx -bench . -benchtime 1x
	$(GO) test ./internal/thor/ ./internal/bitvec/ -run xxx -bench 'Scan|Marshal' -benchmem
	$(GO) test . -run xxx -bench BenchmarkCampaignPID -benchtime 1x -count 3
	$(GO) test . -run xxx -bench BenchmarkPIDClosedLoop -cpu 1 -count 3 -benchmem
	$(GO) test . -run xxx -bench BenchmarkSinkHandover -benchtime 60000x -count 3 -benchmem
	$(GO) test . -run xxx -bench BenchmarkThorNOPSled -cpu 1 -count 3

# fuzz runs each native Go fuzzer for a bounded time (override with
# FUZZTIME=1m etc.). New corpus entries land in the build cache;
# crashers land in the package's testdata/fuzz and should be committed
# alongside the fix. FuzzDecodeReport is the shard report frame, the one
# byte format that arrives over the network: its inputs are a kilobyte of
# checksummed bytes nothing can be cut out of, so the minimizer gets 2s
# per new input, not its default 60 — or a short run is all minimizing.
# FuzzDecodeRow, the stored row's two blobs against encoding/json and the
# relative stateVector against the absolute one, is seeded with kilobyte
# rows too and gets the same 2s. FuzzShardJSONBodies
# is the rest of the shard protocol — hello, lease, heartbeat — posted at a
# live sharded job through the daemon's handler. FuzzScanPack is the scan
# chain's streamed capture and update against the walk of the layout,
# FuzzPortSet the port set against its map-based oracle over any op
# stream, FuzzFastPathVsStep the thor decoder against the fast path's
# predecode mirror: any image through Run, RunFast and StepBurst.
fuzz:
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzParseSQL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzLexer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzDecodeReport -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz FuzzDecodeRow -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzShardJSONBodies -fuzztime $(FUZZTIME)
	$(GO) test ./internal/thor/ -run '^$$' -fuzz FuzzScanPack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/thor/ -run '^$$' -fuzz FuzzPortSet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/thor/ -run '^$$' -fuzz FuzzFastPathVsStep -fuzztime $(FUZZTIME)

# count prints the two numbers a simplicity PR quotes before and after:
# non-test Go lines under cmd/ + internal/, and flag definitions there.
count:
	@find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs echo 'non-test Go lines (cmd/ + internal/):'
	@grep -rhE '\b(fs|flag)\.(Bool|Duration|Float64|Func|Int|Int64|String|Uint|Uint64|Var)\(' --include='*.go' --exclude='*_test.go' cmd internal | wc -l | xargs echo 'flag definitions:'
