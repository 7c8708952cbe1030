GO ?= go
FUZZTIME ?= 15s

.PHONY: tier1 tier2 build vet test race bench fuzz experiments count reach

# tier1 is the gate every PR must keep green: build, vet, and the whole
# suite under the race detector, fresh — the checkpoint, retry, sink and
# shard tests are goroutine coordination and must never be served from the
# cache; the proctarget tests fork and ptrace real children and skip
# themselves where ptrace is not permitted. bench/ is a module of its own
# that `./...` skips, and it compiles against core's exported surface: build
# and vet it here (its tests are the benchmark-only PR's, ROADMAP item 1).
# The hand-over stage's tests run five times more under the race detector:
# the stage, the boards and the sink's writer are three goroutines whose
# interleavings one run samples once. The analysis differentials, the
# relative-row tests and the tests of failing and of concurrent passes run
# again at one and at four CPUs: the analysis pass decodes rows on
# GOMAXPROCS goroutines, and only at one is it the plain serial path. Any
# file gofmt would change fails the gate. The race detector's sync.Pool
# drops items at random, so the allocation-count tests — sqldb's refused
# delete and the store's write path — skip themselves under it and run
# once more without. The chaos harness is test support:
# the gate fails if any command links it. It ends with the two numbers a
# simplicity PR quotes.
tier1:
	@unformatted=$$(gofmt -l *.go cmd internal examples bench); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) build -C bench -o /dev/null ./... && $(GO) vet -C bench ./...
	$(GO) vet ./...
	@if $(GO) list -deps ./cmd/... | grep -qx goofi/internal/chaos; then echo "a command links goofi/internal/chaos"; exit 1; fi
	$(GO) test -race -count 1 ./...
	$(GO) test -race -count 5 ./internal/core/ -run 'HandOver|PrunedStreakYieldsBoard|PrunedDispatch|Quarantine|PauseResumeStop|ResumeFromEveryLogCut'
	$(GO) test -race -count 1 -cpu 1,4 ./internal/analysis/ ./internal/campaign/ -run 'TestAnalysisDifferential|TestRelative|TestAnalysisFailureLeavesResults|TestAnalysisConcurrentPasses|TestEachExperiment'
	$(GO) test -count 1 ./internal/sqldb/ ./internal/campaign/ -run 'TestDeleteCostIgnoresReferencingRows|TestWritePathAllocs'
	@$(MAKE) --no-print-directory count

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
# the barriers make the time the disk's, the allocations are the code's),
# the emulator on a derailed run's zeroed memory (ns/cycle) and the
# analysis pass over a 6,000-experiment sort16 campaign on disk, a first
# analysis and a repeated one, serial and on two CPUs (allocs/op over 6,000
# is its allocations per row).
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
	$(GO) test . -run xxx -bench BenchmarkAnalyzeSort6000 -cpu 1,2 -count 3 -benchmem

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
# FuzzRejoinVsFull and FuzzSteadyVsFull are the boundary oracle
# (scifi/boundary.go) against full emulation: any transient flip in the PID
# loop logs the same row with a forward set installed as without, over 300
# iterations (the convergence cut-off) and 1,000 (the steady-state skip,
# and the cut-off into the reference's skipped stretch).
fuzz:
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzParseSQL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzLexer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqldb/ -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard/ -run '^$$' -fuzz FuzzDecodeReport -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz FuzzDecodeRow -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz FuzzCursorBlob -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzShardJSONBodies -fuzztime $(FUZZTIME)
	$(GO) test ./internal/thor/ -run '^$$' -fuzz FuzzScanPack -fuzztime $(FUZZTIME)
	$(GO) test ./internal/thor/ -run '^$$' -fuzz FuzzPortSet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/thor/ -run '^$$' -fuzz FuzzFastPathVsStep -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scifi/ -run '^$$' -fuzz FuzzRejoinVsFull -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scifi/ -run '^$$' -fuzz FuzzSteadyVsFull -fuzztime $(FUZZTIME)

# experiments rewrites experiments_output.txt, the raw E1–E10 tables that
# EXPERIMENTS.md quotes, from cmd/goofi-experiments (about a second). Every
# line is deterministic but E2's milliseconds and factor and E7's insert
# rate, which are the host's.
experiments:
	$(GO) run ./cmd/goofi-experiments > experiments_output.txt.tmp
	mv experiments_output.txt.tmp experiments_output.txt

# count prints the two numbers a simplicity PR quotes before and after:
# non-test Go lines under cmd/ + internal/, and flag definitions there.
count:
	@find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs echo 'non-test Go lines (cmd/ + internal/):'
	@grep -rhE '\b(fs|flag)\.(Bool|Duration|Float64|Func|Int|Int64|String|Uint|Uint64|Var)\(' --include='*.go' --exclude='*_test.go' cmd internal | wc -l | xargs echo 'flag definitions:'

# reach prints the share of internal/sqldb's statements the rest of the
# program reaches: the coverage of sqldb from the tests of every other
# package, from goofi-experiments (E1–E10), from the four examples and from
# the CLI workflow (configure, setup, run, analyze, analyze -sql, list), the
# programs built as -cover binaries, everything merged with go tool covdata.
# What it does not reach is what sqldb can still lose (ROADMAP item 7).
reach:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mkdir -p "$$dir/unit" "$$dir/run" "$$dir/bin" "$$dir/work"; \
	$(GO) test -p 2 -count 1 -cover -coverpkg=./internal/sqldb \
		$$($(GO) list ./... | grep -v '/internal/sqldb$$') -args -test.gocoverdir="$$dir/unit" > /dev/null; \
	$(GO) build -cover -coverpkg=./internal/sqldb -o "$$dir/bin/" ./cmd/goofi ./cmd/goofi-experiments \
		./examples/quickstart ./examples/controlapp ./examples/newtarget ./examples/preinjection; \
	export GOCOVERDIR="$$dir/run"; cd "$$dir/work"; \
	for p in goofi-experiments quickstart controlapp newtarget preinjection; do "$$dir/bin/$$p" > /dev/null; done; \
	g="$$dir/bin/goofi"; \
	$$g configure -db lab.db > /dev/null; \
	$$g setup -db lab.db -campaign c -workload sort16 -locations cpu -window 10:1600 -experiments 200 > /dev/null; \
	$$g run -db lab.db -campaign c -quiet > /dev/null; \
	$$g analyze -db lab.db -campaign c > /dev/null; \
	$$g analyze -db lab.db -campaign c -sql > /dev/null; \
	$$g list -db lab.db > /dev/null; \
	$(GO) tool covdata percent -i="$$dir/unit,$$dir/run" -pkg goofi/internal/sqldb
