package main

// In-process campaigns: the same assembly `goofi run` performs, inside
// the harness so its calls into each layer can be wrapped. Three uses
// share runInProcess: the traced scenario, its untraced twin (tracing
// overhead and the transparency check), and the in-memory oracle that
// the real binaries' rows are compared against.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/server"
	"goofi/internal/shard"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"

	// Registered target systems, reached through the core registry.
	_ "goofi/internal/proctarget"
	_ "goofi/internal/scifi"
)

// inprocOpts selects what an in-process campaign is for.
type inprocOpts struct {
	// traced wraps target and sink in the tracing decorators and attaches
	// the scheduler's span tracer.
	traced bool
	// oracle runs on an in-memory store without durable checkpoints: a
	// path through the program that shares neither the WAL nor the CLI
	// with the run it is compared against.
	oracle bool
	// hi, when above zero, executes only plan sequences [0, hi); the plan
	// itself is always drawn in full.
	hi int
	// records keeps the decoded rows of the finished store: the store
	// kernels replay them.
	records bool
}

// scenario is what an in-process campaign produced and cost.
type scenario struct {
	n       int
	runNS   int64 // Runner.Run wall
	cpuNS   int64 // process CPU (user+sys) spent during Runner.Run
	sum     *core.Summary
	rows    *rowSet
	report  string
	delta   map[string]float64     // telemetry.Default change over the run
	log     *spanLog               // traced only
	phases  []telemetry.SpanRecord // the scheduler's own plan/reference/experiment spans
	records []*campaign.ExperimentRecord
	camp    *campaign.Campaign
	tsd     *campaign.TargetSystemData

	checkpointNS int64 // DB.Checkpoint of the finished store
	openNS       int64 // OpenAt of the checkpointed store
	classifyNS   int64 // AnalyzeAndStore on the open store
}

// selfCPU is the CPU time this process has consumed, in nanoseconds.
func selfCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// snapshotDelta subtracts two telemetry snapshots.
func snapshotDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// runInProcess executes the campaign a prepared (configured and set up)
// database defines. Without the oracle option it runs on that database
// exactly as `goofi run` would; with it, on a fresh in-memory copy of
// the definition.
func runInProcess(p *prepared, victim string, o inprocOpts) (*scenario, error) {
	db, err := sqldb.OpenAt(p.db, sqldb.SyncBarrier)
	if err != nil {
		return nil, err
	}
	// db is reassigned below; the deferred close follows it. Closing a
	// database twice is harmless.
	defer func() { db.Close() }()
	st, err := campaign.NewStore(db)
	if err != nil {
		return nil, err
	}
	camp, err := st.GetCampaign(campaignName)
	if err != nil {
		return nil, err
	}
	tsd, err := st.GetTargetSystem(camp.TargetName)
	if err != nil {
		return nil, err
	}
	if o.oracle {
		db.Close()
		db = sqldb.Open()
		if st, err = campaign.NewStore(db); err != nil {
			return nil, err
		}
		if err := st.PutTargetSystem(tsd); err != nil {
			return nil, err
		}
		if err := st.PutCampaign(camp); err != nil {
			return nil, err
		}
	}
	sc := &scenario{n: camp.NumExperiments, camp: camp, tsd: tsd}
	if o.hi > 0 {
		sc.n = o.hi
	}
	if err := sc.execute(p.w, victim, st, o); err != nil {
		return nil, err
	}
	if o.oracle {
		rep, err := analysis.AnalyzeAndStore(st, campaignName)
		if err != nil {
			return nil, err
		}
		sc.report = rep.Render()
		sc.rows, err = readRowsDB(db, camp.NumExperiments)
		return sc, err
	}
	// The rest of what `goofi run` does after Run returns: compact the WAL
	// into the snapshot. Then the read side of the finished store.
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if err := sc.readBack(p.db, o.records); err != nil {
		return nil, err
	}
	return sc, nil
}

// readBack measures the read side of a finished store as `goofi analyze`
// pays it — open the snapshot, classify and render, compact — and takes
// the rows for the output checks.
func (sc *scenario) readBack(dbPath string, keepRecords bool) error {
	start := time.Now()
	db, err := sqldb.OpenAt(dbPath, sqldb.SyncBarrier)
	if err != nil {
		return err
	}
	defer db.Close()
	sc.openNS = time.Since(start).Nanoseconds()
	st, err := campaign.NewStore(db)
	if err != nil {
		return err
	}
	start = time.Now()
	rep, err := analysis.AnalyzeAndStore(st, campaignName)
	if err != nil {
		return err
	}
	sc.classifyNS = time.Since(start).Nanoseconds()
	sc.report = rep.Render()
	start = time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	sc.checkpointNS = time.Since(start).Nanoseconds()
	if sc.rows, err = readRowsDB(db, sc.camp.NumExperiments); err != nil {
		return err
	}
	if keepRecords {
		// Real rows of this workload feed the store kernels.
		sc.records, err = st.Experiments(campaignName)
	}
	return err
}

// execute assembles the runner the way cmd/goofi does — registry target,
// batching sink, one board, the CLI's checkpoint interval — and runs the
// campaign, recording the telemetry change around it.
func (sc *scenario) execute(w *workload, victim string, st *campaign.Store, o inprocOpts) error {
	kind, params := "scifi", map[string]string{}
	if w.path == pathProc {
		kind, params["victim"] = "proc", victim
	}
	info, ok := core.LookupTarget(kind)
	if !ok {
		return fmt.Errorf("target kind %q not registered", kind)
	}
	cfg := core.TargetConfig{Params: params}
	if _, err := info.New(cfg); err != nil {
		return fmt.Errorf("target %q: %w", kind, err)
	}
	var tracer *telemetry.Tracer
	if o.traced {
		sc.log = newSpanLog()
		tracer = telemetry.NewTracer()
	}
	boards := 0
	factory := func() core.TargetSystem {
		ts, err := info.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("target %q factory: %v", kind, err))
		}
		if sc.log != nil {
			ts = traceTarget(ts, sc.log, boards)
			boards++
		}
		return ts
	}
	batching := campaign.NewBatchingSink(st, 0)
	defer batching.Close()
	var sink core.CheckpointSink = batching
	if sc.log != nil {
		sink = &tracedSink{inner: batching, log: sc.log}
	}
	opts := []core.RunnerOption{
		core.WithSink(sink),
		core.WithBoards(1, factory),
		core.WithTelemetry(tracer, telemetry.NewProgress(1)),
	}
	if !o.oracle {
		opts = append(opts, core.WithCheckpoints(core.DefaultCheckpointInterval))
	}
	if o.hi > 0 {
		opts = append(opts, core.WithShardRange(0, o.hi))
	}
	r, err := core.NewRunner(factory(), core.Algorithms()[info.Algorithm], sc.camp, sc.tsd, opts...)
	if err != nil {
		return err
	}
	before := telemetry.Default.Snapshot()
	cpu0 := selfCPU()
	start := time.Now()
	sc.sum, err = r.Run(context.Background())
	sc.runNS = time.Since(start).Nanoseconds()
	sc.cpuNS = selfCPU() - cpu0
	if err != nil {
		return err
	}
	if err := batching.Close(); err != nil {
		return err
	}
	if err := st.DeleteCheckpoint(campaignName); err != nil {
		return err
	}
	sc.delta = snapshotDelta(before, telemetry.Default.Snapshot())
	sc.phases = tracer.Drain()
	return nil
}

// shardScenario is an in-process sharded campaign: a goofid server and
// two shard workers talking loopback HTTP through a counting transport.
type shardScenario struct {
	n        int
	wallNS   int64 // submit to done, workers returned
	submitNS int64
	workerNS int64 // sum of the workers' Run walls
	cpuNS    int64 // process CPU spent submit to done
	delta    map[string]float64
	log      *spanLog // traced only
	calls    []httpCall
	// back holds the read side of the coordinator's finished store.
	back *scenario
}

// runShardedInProcess runs the campaign a prepared solo database
// defines through server + shard.Worker inside the harness. With traced
// set, workers build their targets from the decorated target kind.
func runShardedInProcess(e *env, p *prepared, traced bool) (*shardScenario, error) {
	camp, err := readDefinition(p.db)
	if err != nil {
		return nil, err
	}
	dir, err := e.dir("inproc-shard")
	if err != nil {
		return nil, err
	}
	sc := &shardScenario{n: camp.NumExperiments}
	req := server.SubmitRequest{Tenant: tenantName, Campaign: camp, Shards: 2, ExternalWorkers: true}
	if traced {
		sc.log = newSpanLog()
		activeLog.Store(sc.log)
		defer activeLog.Store(nil)
		tracedBoard.Store(0)
		req.TargetKind = tracedKind
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DataDir: filepath.Join(dir, "data"), Boards: 2})
	if err != nil {
		ln.Close()
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(ln)
	}()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		<-served
		return srv.Shutdown(ctx)
	}
	defer stop()
	base := "http://" + ln.Addr().String()

	counter := &countingTransport{base: http.DefaultTransport, log: sc.log}
	client := &http.Client{Transport: counter}
	before := telemetry.Default.Snapshot()
	cpu0 := selfCPU()
	start := time.Now()
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("in-process submit: %s", resp.Status)
	}
	sc.submitNS = time.Since(start).Nanoseconds()

	addr := ln.Addr().String()
	if err := waitJobState(addr, server.StateRunning, server.StateDone); err != nil {
		return nil, err
	}
	// A failed job would leave the workers retrying their leases forever.
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var workerErr error
	for _, name := range []string{"w0", "w1"} {
		w, err := shard.NewWorker(shard.WorkerConfig{
			Name: name,
			Dir:  filepath.Join(dir, name),
			Transport: &shard.HTTPTransport{Base: base, Tenant: tenantName,
				Campaign: campaignName, Client: client},
			Poll: 100 * time.Millisecond, // the shard-worker CLI default
		})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			err := w.Run(ctx)
			mu.Lock()
			sc.workerNS += time.Since(t0).Nanoseconds()
			if err != nil && workerErr == nil {
				workerErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if workerErr != nil {
		return nil, fmt.Errorf("in-process shard worker: %w", workerErr)
	}
	if err := waitJobState(addr, server.StateDone); err != nil {
		return nil, err
	}
	sc.wallNS = time.Since(start).Nanoseconds()
	sc.cpuNS = selfCPU() - cpu0
	sc.delta = snapshotDelta(before, telemetry.Default.Snapshot())
	counter.mu.Lock()
	sc.calls = counter.calls
	counter.mu.Unlock()

	if err := stop(); err != nil {
		return nil, err
	}
	sc.back = &scenario{n: sc.n, camp: camp}
	return sc, sc.back.readBack(filepath.Join(dir, "data", tenantName+".db"), false)
}

// readDefinition loads the campaign a prepared database defines.
func readDefinition(dbPath string) (*campaign.Campaign, error) {
	db, err := sqldb.OpenAt(dbPath, sqldb.SyncNever)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	st, err := campaign.NewStore(db)
	if err != nil {
		return nil, err
	}
	return st.GetCampaign(campaignName)
}
