// Command goofi is the GOOFI fault injection tool's command-line surface,
// replacing the paper's Java/Swing GUI. The four phases of §3 map to
// subcommands:
//
//	goofi configure  — configuration phase (Fig 5): store a target
//	                   system's scan-chain maps
//	goofi setup      — set-up phase (Fig 6): define or merge campaigns
//	goofi run        — fault injection phase (Fig 7): execute a campaign
//	                   with live progress
//	goofi resume     — continue an interrupted campaign from its last
//	                   durable checkpoint
//	goofi analyze    — analysis phase (§3.4): classify outcomes and run
//	                   the generated SQL analysis
//	goofi list       — show stored targets and campaigns
//	goofi schema     — print the database schema (Fig 4)
//
// All state lives in a GOOFI database file (-db) plus its write-ahead
// log (-db path + ".wal"); a killed process recovers both on the next
// open.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/preinject"
	"goofi/internal/sqldb"
	"goofi/internal/telemetry"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"

	// Registered target systems. Blank imports run each package's
	// RegisterTarget init; the CLI reaches them only via the registry.
	_ "goofi/internal/pinlevel"
	"goofi/internal/proctarget"
	_ "goofi/internal/scifi"
	_ "goofi/internal/swifi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "goofi:", err)
		os.Exit(1)
	}
}

func usage() string {
	return `usage: goofi <command> [flags]

commands:
  configure  store a target system configuration (Fig 5)
  setup      define a fault injection campaign (Fig 6)
  merge      merge campaigns into a new one
  run        execute a campaign (Fig 7)
  resume     continue an interrupted campaign from its checkpoint
  analyze    classify campaign results (paper §3.4)
  list       list stored targets and campaigns
  schema     print the GOOFI database schema (Fig 4)
  workloads  list built-in workloads
  targets    list registered target systems

daemon client (talks to a running goofid):
  submit       submit a campaign to a goofid daemon
  status       show a submitted campaign's state and progress
  results      fetch a submitted campaign's dependability report
  cancel       cancel a submitted campaign
  shard-worker lease and execute shard ranges of a sharded campaign
`
}

func run(args []string) error {
	if len(args) == 0 {
		fmt.Print(usage())
		return fmt.Errorf("no command given")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "configure":
		return cmdConfigure(rest)
	case "setup":
		return cmdSetup(rest)
	case "merge":
		return cmdMerge(rest)
	case "run":
		return cmdCampaign(rest, false)
	case "resume":
		return cmdCampaign(rest, true)
	case "analyze":
		return cmdAnalyze(rest)
	case "list":
		return cmdList(rest)
	case "schema":
		return cmdSchema(rest)
	case "workloads":
		return cmdWorkloads(rest)
	case "targets":
		return cmdTargets(rest)
	case "submit":
		return cmdSubmit(rest)
	case "status":
		return cmdStatus(rest)
	case "results":
		return cmdResults(rest)
	case "cancel":
		return cmdCancel(rest)
	case "shard-worker":
		return cmdShardWorker(rest)
	case "help", "-h", "--help":
		fmt.Print(usage())
		return nil
	default:
		fmt.Print(usage())
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// openStore opens (or creates) the GOOFI database at path with its
// write-ahead log. Crash recovery runs inside OpenAt: the snapshot is
// loaded and surviving log records are replayed on top.
func openStore(path string) (*campaign.Store, *sqldb.DB, error) {
	db, err := sqldb.OpenAt(path, sqldb.SyncBarrier)
	if err != nil {
		return nil, nil, err
	}
	st, err := campaign.NewStore(db)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return st, db, nil
}

func cmdConfigure(args []string) error {
	fs := flag.NewFlagSet("configure", flag.ContinueOnError)
	dbPath := fs.String("db", "goofi.db", "GOOFI database file")
	target := fs.String("target", "thor-board", "target system name")
	kind := fs.String("kind", "scifi", "target kind (see 'goofi targets')")
	victim := fs.String("victim", "", "victim binary path (proc targets; adds the memory chain)")
	params := paramFlags{}
	fs.Var(params, "target-param", "target-specific key=value parameter (repeatable; swifi targets size their fault space with image-bytes=N, default 4096)")
	tree := fs.Bool("tree", false, "print the hierarchical location list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, db, err := openStore(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	if *victim != "" {
		params["victim"] = *victim
	}
	info, ok := core.LookupTarget(*kind)
	if !ok {
		return fmt.Errorf("unknown target kind %q (see 'goofi targets')", *kind)
	}
	tsd, err := info.SystemData(*target, core.TargetConfig{Params: params})
	if err != nil {
		return err
	}
	if err := st.PutTargetSystem(tsd); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fmt.Printf("configured target %q (%s) with %d chain(s)\n", *target, *kind, len(tsd.Chains))
	if *tree {
		for i := range tsd.Chains {
			fmt.Print(tsd.Chains[i].Tree())
		}
	}
	return nil
}

// campaignFlags groups the campaign-definition flags shared by `goofi
// setup` (writes the local database) and `goofi submit` (ships the
// definition to a goofid daemon). One flag set, one Campaign builder —
// the two paths cannot drift apart.
type campaignFlags struct {
	name, target, chain, locations, observe *string
	model                                   *string
	mult                                    *int
	activeProb                              *float64
	trigKind                                *string
	trigCycle, trigAddr                     *uint64
	trigOcc                                 *int
	window                                  *string
	experiments                             *int
	seed                                    *int64
	timeout                                 *uint64
	maxIter                                 *int
	wl, envName, logMode                    *string
	victim                                  *string
}

func newCampaignFlags(fs *flag.FlagSet) *campaignFlags {
	return &campaignFlags{
		name:        fs.String("campaign", "", "campaign name (required)"),
		target:      fs.String("target", "thor-board", "target system name"),
		chain:       fs.String("chain", "internal", "scan chain to inject into"),
		locations:   fs.String("locations", "cpu", "comma-separated location names/prefixes"),
		observe:     fs.String("observe", "", "comma-separated observed locations (default: all writable)"),
		model:       fs.String("model", "transient", "fault model: transient, stuck-at-0, stuck-at-1, intermittent"),
		mult:        fs.Int("multiplicity", 1, "bits per fault"),
		activeProb:  fs.Float64("active-prob", 0.5, "intermittent activation probability"),
		trigKind:    fs.String("trigger", "cycle", "trigger kind: cycle, instret, breakpoint, data-access, branch, call, task-switch, rtc"),
		trigCycle:   fs.Uint64("trigger-cycle", 0, "cycle for cycle triggers"),
		trigAddr:    fs.Uint64("trigger-addr", 0, "address for breakpoint/data-access triggers"),
		trigOcc:     fs.Int("trigger-occurrence", 1, "occurrence count"),
		window:      fs.String("window", "", "random injection window lo:hi (cycles)"),
		experiments: fs.Int("experiments", 100, "number of fault injection experiments"),
		seed:        fs.Int64("seed", 1, "campaign seed"),
		timeout:     fs.Uint64("timeout", 300000, "termination time-out in cycles"),
		maxIter:     fs.Int("max-iterations", 0, "iteration limit for loop workloads (0 = run to HALT)"),
		wl:          fs.String("workload", "sort16", "built-in workload name"),
		envName:     fs.String("envsim", "", "environment simulator (empty = none)"),
		logMode:     fs.String("log", "normal", "log mode: normal or detail"),
		victim:      fs.String("victim", "", "victim binary path (proc targets; overrides -workload)"),
	}
}

// campaign builds the Campaign the parsed flags describe.
func (cf *campaignFlags) campaign() (*campaign.Campaign, error) {
	if *cf.name == "" {
		return nil, fmt.Errorf("-campaign is required")
	}
	var spec campaign.WorkloadSpec
	if *cf.victim != "" {
		// A victim binary is the workload for live-process targets: the
		// path travels in Source, so no built-in lookup applies.
		spec = campaign.WorkloadSpec{
			Name:   "victim:" + filepath.Base(*cf.victim),
			Source: *cf.victim,
		}
	} else {
		var ok bool
		spec, ok = workload.All()[*cf.wl]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (see 'goofi workloads')", *cf.wl)
		}
	}
	camp := &campaign.Campaign{
		Name:       *cf.name,
		TargetName: *cf.target,
		ChainName:  *cf.chain,
		Locations:  splitList(*cf.locations),
		Observe:    splitList(*cf.observe),
		FaultModel: faultmodel.Spec{
			Kind:         faultmodel.Kind(*cf.model),
			Multiplicity: *cf.mult,
			ActiveProb:   *cf.activeProb,
		},
		Trigger: trigger.Spec{
			Kind:       *cf.trigKind,
			Cycle:      *cf.trigCycle,
			Addr:       uint32(*cf.trigAddr),
			Occurrence: *cf.trigOcc,
		},
		NumExperiments: *cf.experiments,
		Seed:           *cf.seed,
		Termination: campaign.Termination{
			TimeoutCycles: *cf.timeout,
			MaxIterations: *cf.maxIter,
		},
		Workload: spec,
		LogMode:  campaign.LogMode(*cf.logMode),
	}
	if camp.FaultModel.Kind != faultmodel.Intermittent {
		camp.FaultModel.ActiveProb = 0
	}
	if *cf.window != "" {
		lo, hi, err := parseWindow(*cf.window)
		if err != nil {
			return nil, err
		}
		camp.RandomWindow = [2]uint64{lo, hi}
	}
	if *cf.envName != "" {
		camp.EnvSim = &campaign.EnvSimSpec{Name: *cf.envName}
	}
	return camp, nil
}

func cmdSetup(args []string) error {
	fs := flag.NewFlagSet("setup", flag.ContinueOnError)
	dbPath := fs.String("db", "goofi.db", "GOOFI database file")
	cf := newCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	camp, err := cf.campaign()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	st, db, err := openStore(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := st.PutCampaign(camp); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fmt.Printf("campaign %q stored: %d experiments on %s over %v\n",
		camp.Name, camp.NumExperiments, camp.Workload.Name, camp.Locations)
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	dbPath := fs.String("db", "goofi.db", "GOOFI database file")
	name := fs.String("into", "", "name of the merged campaign (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || fs.NArg() < 2 {
		return fmt.Errorf("merge: need -into and at least two source campaigns")
	}
	st, db, err := openStore(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	merged, err := st.MergeCampaigns(*name, fs.Args()...)
	if err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fmt.Printf("merged %v into %q: %d experiments over %d locations\n",
		fs.Args(), merged.Name, merged.NumExperiments, len(merged.Locations))
	return nil
}

// paramFlags collects repeated -target-param key=value flags into a
// target configuration.
type paramFlags map[string]string

func (p paramFlags) String() string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (p paramFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p[k] = v
	return nil
}

func cmdTargets(args []string) error {
	fs := flag.NewFlagSet("targets", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, ti := range core.Targets() {
		fmt.Printf("%s\n    %s\n", ti.Kind, ti.Description)
		det := "deterministic (byte-identical reruns)"
		if !ti.Deterministic {
			det = "plan-deterministic (statistical outcomes)"
		}
		fmt.Printf("    algorithm: %s, %s\n", ti.Algorithm, det)
		if len(ti.Aliases) > 0 {
			fmt.Printf("    aliases: %s\n", strings.Join(ti.Aliases, ", "))
		}
	}
	return nil
}

// robustFlags is the fault-tolerance flag group shared by run and
// resume: the knobs of the scheduler's recovery layer.
type robustFlags struct {
	maxRetries     *int
	boardThreshold *int
	watchdog       *time.Duration
}

func addRobustFlags(fs *flag.FlagSet) *robustFlags {
	return &robustFlags{
		maxRetries: fs.Int("max-retries", 0,
			"retries per experiment after a harness failure (0 = fail the campaign on the first error)"),
		boardThreshold: fs.Int("board-failure-threshold", 0,
			"consecutive failures before a board is quarantined (0 = never)"),
		watchdog: fs.Duration("watchdog", 0,
			"per-experiment wall-clock deadline; a board past it is wedged and power-cycled (0 = none)"),
	}
}

// policy returns the retry policy the flag values ask for.
func (rf *robustFlags) policy() core.RetryPolicy {
	return core.RetryPolicy{
		MaxRetries:            *rf.maxRetries,
		BoardFailureThreshold: *rf.boardThreshold,
		WatchdogTimeout:       *rf.watchdog,
	}
}

// progressEvery is how often the progress line is redrawn.
const progressEvery = 250 * time.Millisecond

// startTelemetry builds the runner's telemetry attachments and brings up
// the outputs: the Progress tracker (always — the final summary's
// throughput numbers come from it), and with an address (-telemetry-addr)
// the span tracer (the CampaignTelemetry table fills only then) and the
// HTTP server. Unless quiet, a reporter renders the tracker as the paper's
// Fig 7 progress line on stdout, redrawn in place every progressEvery.
// stop shuts the outputs down, ending the line with a final render, and
// is idempotent, so callers stop before printing the summary and also
// defer it for early error returns.
func startTelemetry(addr string, boards int, quiet bool) (tr *telemetry.Tracer, prog *telemetry.Progress, stop func(), err error) {
	prog = telemetry.NewProgress(boards)
	var srv *telemetry.Server
	if addr != "" {
		tr = telemetry.NewTracer()
		srv, err = telemetry.NewServer(addr, telemetry.Default, prog)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s/metrics\n", srv.Addr())
	}
	done := make(chan struct{})
	var reporter sync.WaitGroup
	line := fig7Line{prog: prog}
	if !quiet {
		reporter.Add(1)
		go func() {
			defer reporter.Done()
			tick := time.NewTicker(progressEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					line.render("")
				}
			}
		}()
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(done)
			reporter.Wait()
			if !quiet {
				line.render("\n")
			}
			if srv != nil {
				// Graceful: let an in-flight /metrics scrape finish
				// instead of cutting its connection mid-response.
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
			}
		})
	}
	return tr, prog, stop, nil
}

// fig7Line is the Fig 7 progress window on one terminal line:
// campaign, phase, done/total, rate, ETA, retries and invalid runs, read
// off the Progress snapshot that /progress and goofi status serve.
type fig7Line struct {
	prog  *telemetry.Progress
	width int // of the longest render, which a shorter one blanks out
}

// render redraws the line in place, followed by end. Nothing is drawn
// before the run has a phase (a detail-mode rerun never has one).
func (l *fig7Line) render(end string) {
	s := l.prog.Snapshot()
	if s.Phase == "" {
		return
	}
	text := fmt.Sprintf("[%s] %s %d/%d (%.1f rec/s, eta %s, %d retried, %d invalid)",
		s.Campaign, s.Phase, s.Done, s.Total, s.RecordsPerSecond,
		time.Duration(s.ETASeconds*float64(time.Second)).Round(time.Second),
		s.Retried, s.InvalidRuns)
	l.width = max(l.width, len(text))
	fmt.Printf("\r%-*s%s", l.width, text, end)
}

// cmdCampaign is `goofi run` and, with resume set, `goofi resume`: one
// flag set and one body over core.Assemble, which is also what goofid and
// the shard worker run — so the three cannot drift apart. A resumed
// campaign continues from its durable cursor: already-logged experiments
// are skipped and the rest of the same plan runs, producing results
// byte-identical to an uninterrupted run. It must be given the flags that
// shape the plan (-pre-injection) as the interrupted run had them.
func cmdCampaign(args []string, resume bool) error {
	verb := "run"
	if resume {
		verb = "resume"
	}
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	dbPath := fs.String("db", "goofi.db", "GOOFI database file")
	name := fs.String("campaign", "", "campaign name (or pass it as the positional argument)")
	technique := fs.String("technique", "", "fault injection algorithm: scifi, swifi-preruntime, swifi-runtime, pin-level (default: the target's own)")
	targetKind := fs.String("target", "", "target system kind (see 'goofi targets'; default: derived from -technique, else scifi)")
	params := paramFlags{}
	fs.Var(params, "target-param", "target-specific key=value parameter (repeatable; fastpath=off runs thor's cycle-accurate step path)")
	preFilter := fs.Bool("pre-injection", false, "enable pre-injection liveness filtering (a resumed campaign needs it as the interrupted run had it)")
	boards := fs.Int("boards", 1, "number of simulated boards to run in parallel")
	ckpt := fs.Int("checkpoint", core.DefaultCheckpointInterval,
		"experiments between durable checkpoints (0 disables crash recovery)")
	noFwd := fs.Bool("no-checkpoints", false,
		"disable checkpoint fast-forwarding (every experiment replays the full fault-free prefix)")
	quiet := fs.Bool("quiet", false, "suppress the progress line")
	// The two flags that belong to one verb only.
	rerun, retryInvalid := new(string), new(bool)
	if resume {
		fs.BoolVar(retryInvalid, "retry-invalid", false,
			"delete invalid-run records and re-attempt those experiments")
	} else {
		fs.StringVar(rerun, "rerun", "", "re-run one experiment by name (detail mode), recording parentExperiment")
	}
	rf := addRobustFlags(fs)
	telemetryAddr := fs.String("telemetry-addr", "",
		"serve /metrics, /healthz, /progress and pprof on this address and record phase spans (e.g. :9090, or 127.0.0.1:0 for any free port; empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" && fs.NArg() > 0 {
		*name = fs.Arg(0)
	}
	if *name == "" {
		return fmt.Errorf("%s: a campaign name is required (-campaign)", verb)
	}
	st, db, err := openStore(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	camp, err := st.GetCampaign(*name)
	if err != nil {
		return err
	}
	tsd, err := st.GetTargetSystem(camp.TargetName)
	if err != nil {
		return err
	}
	tr, prog, stopTelemetry, err := startTelemetry(*telemetryAddr, *boards, *quiet)
	if err != nil {
		return err
	}
	defer stopTelemetry()
	spec := core.RunSpec{
		Store: st, Campaign: camp, Target: tsd,
		TargetKind: *targetKind, Technique: *technique, TargetParams: params,
		Boards:     *boards,
		Checkpoint: *ckpt,
		NoForward:  *noFwd,
		Retry:      rf.policy(),
		Resume:     resume,
		Tracer:     tr,
		Progress:   prog,
	}
	if *preFilter {
		a, err := preinject.AnalyzeWorkload(thor.DefaultConfig(), camp)
		if err != nil {
			return fmt.Errorf("%s: pre-injection analysis: %w", verb, err)
		}
		spec.Filter = a.Filter()
	}
	cr, err := core.Assemble(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", verb, err)
	}
	defer cr.Close()
	switch {
	case *rerun != "":
		ex, err := cr.Runner.Rerun(*rerun, true)
		if err != nil {
			return err
		}
		if err := cr.Close(); err != nil {
			return err
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
		fmt.Printf("\nre-ran %s as %s (outcome: %s)\n", *rerun, ex.Name, ex.Result.Outcome.Status)
		return nil
	case resume && cr.Cursor == nil:
		return fmt.Errorf("resume: campaign %q has no checkpoint or logged experiments ('goofi run' starts it)", camp.Name)
	case *retryInvalid:
		if err := dropInvalidRuns(st, cr.Cursor); err != nil {
			return err
		}
	}
	if resume {
		fmt.Printf("resuming %s: %d/%d experiments already durable\n",
			camp.Name, cr.Resumed(), camp.NumExperiments)
	}
	sum, err := cr.Run(context.Background())
	if err != nil {
		return err
	}
	stopTelemetry()
	if _, err := cr.Finish(sum); err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	printSummary(sum, cr.Resumed(), prog)
	return nil
}

// dropInvalidRuns is `goofi resume -retry-invalid`. Invalid runs are
// final by default — a resumed campaign skips them like any completed
// slot. Opting in deletes their records and drops them from the cursor so
// the scheduler re-attempts them under this run's retry policy.
func dropInvalidRuns(st *campaign.Store, cp *campaign.Checkpoint) error {
	kept := cp.Completed[:0]
	dropped := 0
	for _, seq := range cp.Completed {
		rec, err := st.GetExperiment(campaign.ExperimentName(cp.Campaign, seq))
		if err != nil {
			return err
		}
		if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
			if err := st.DeleteExperiment(rec.Name); err != nil {
				return err
			}
			dropped++
			continue
		}
		kept = append(kept, seq)
	}
	cp.Completed = kept
	fmt.Printf("re-attempting %d invalid run(s)\n", dropped)
	return nil
}

// printSummary prints the campaign summary. resumed is how many
// experiments an earlier interrupted run had already contributed. The
// wall-clock and throughput lines come from the telemetry Progress
// tracker so the summary and the /progress endpoint can't drift.
func printSummary(sum *core.Summary, resumed int, prog *telemetry.Progress) {
	if resumed > 0 {
		fmt.Printf("\ncampaign %s finished: %d experiments this run (%d restored from checkpoint), %d injected, %d skipped by pre-injection filter\n",
			sum.Campaign, sum.Experiments, resumed, sum.Injected, sum.Skipped)
	} else {
		fmt.Printf("\ncampaign %s finished: %d experiments, %d injected, %d skipped by pre-injection filter\n",
			sum.Campaign, sum.Experiments, sum.Injected, sum.Skipped)
	}
	if s := prog.Snapshot(); s.ElapsedSeconds > 0 {
		fmt.Printf("  wall clock: %v (%.1f records/sec)\n",
			time.Duration(s.ElapsedSeconds*float64(time.Second)).Round(time.Millisecond),
			s.RecordsPerSecond)
	}
	statuses := make([]string, 0, len(sum.ByStatus))
	for status := range sum.ByStatus {
		statuses = append(statuses, string(status))
	}
	sort.Strings(statuses)
	for _, status := range statuses {
		fmt.Printf("  %-12s %d\n", status, sum.ByStatus[campaign.OutcomeStatus(status)])
	}
	if !sum.Deterministic && sum.PlanHash != "" {
		// Nondeterministic targets replay the plan, not the bytes: print
		// the hash so same-seed reruns can be checked for plan identity.
		fmt.Printf("  fault plan %s (nondeterministic target: plan is seed-stable, outcomes are statistical)\n",
			sum.PlanHash)
	}
	if ts := proctarget.ReadTriggerStats(); ts.Experiments > 0 {
		// What reaching the injection points cost: breakpoint stops along
		// the victim's prefix trace, single-steps (recording the trace
		// included), how the guided experiments got there — counted by a
		// hardware breakpoint or hopping int3s where the kernel refused
		// one — and experiments that had to be stepped; then how the
		// victims were started: forked from a board's zygote, or exec'd
		// (zygotes, prefix recordings, the reference output), over how
		// many experiment runs, and how many spares were forked for an
		// experiment that never took them.
		n := float64(ts.Experiments)
		fmt.Printf("  trigger: %.2f breakpoint stops and %.2f single-steps per experiment, %d guides counted and %d by int3 hops, %d fallbacks to stepping; %d forks, %d execs over %d runs; %d spares unused\n",
			float64(ts.Stops)/n, float64(ts.SingleSteps)/n, ts.Counted, ts.Int3, ts.Fallbacks, ts.Forks, ts.Execs, ts.Experiments, ts.SparesUnused)
		// Where a run's time went: the mean from resume to reap, by class;
		// then how many crashes skipped the Go runtime's freeze sleep.
		classes := make([]string, 0, len(ts.Run))
		for class, d := range ts.Run {
			classes = append(classes, fmt.Sprintf("%s %.2f ms", class, float64(d)/float64(time.Millisecond)))
		}
		sort.Strings(classes)
		fmt.Printf("  run: %s (mean from resume to reap); %d freeze sleeps skipped\n", strings.Join(classes, ", "), ts.FreezeSkips)
	}
	if sum.Forwarded > 0 {
		fmt.Printf("  fast-forwarded %d experiments: %d cycles emulated, %d saved by checkpoint restore\n",
			sum.Forwarded, sum.CyclesEmulated, sum.CyclesSaved)
	}
	if sum.Converged > 0 {
		fmt.Printf("  converged: %d experiments re-joined the reference run, %d cycles not emulated\n",
			sum.Converged, sum.CyclesConverged)
	}
	if sum.Steady > 0 {
		fmt.Printf("  steady: %d runs skipped a steady state to their last iteration, %d cycles not emulated\n",
			sum.Steady, sum.CyclesSteady)
	}
	if n := sum.Pruned.Total(); n > 0 {
		fmt.Printf("  pruned: %d experiments not emulated (%d latent, %d overwritten), rows synthesized from the reference run's def-use table\n",
			n, sum.Pruned.Latent, sum.Pruned.Overwritten)
	}
	if sum.Retried > 0 || sum.InvalidRuns > 0 || sum.QuarantinedBoards > 0 {
		fmt.Printf("  harness recovery: %d retries, %d invalid runs, %d boards quarantined\n",
			sum.Retried, sum.InvalidRuns, sum.QuarantinedBoards)
	}
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	dbPath := fs.String("db", "goofi.db", "GOOFI database file")
	name := fs.String("campaign", "", "campaign to analyze (required)")
	sql := fs.Bool("sql", false, "also run the generated SQL analysis queries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("analyze: -campaign is required")
	}
	st, db, err := openStore(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	rep, err := analysis.AnalyzeAndStore(st, *name)
	if err != nil {
		return err
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fmt.Print(rep.Render())
	// Campaigns run with telemetry also get a harness-side breakdown of
	// where the wall-clock time went.
	if pt, err := analysis.PhaseTimes(st, *name); err != nil {
		return err
	} else if pt != nil {
		fmt.Println()
		fmt.Print(pt.Render())
	}
	if *sql {
		results, err := analysis.RunGenerated(st, *name)
		if err != nil {
			return err
		}
		for _, q := range analysis.GeneratedQueries() {
			r := results[q.Name]
			fmt.Printf("\n-- %s\n", q.Name)
			fmt.Println(strings.Join(r.Cols, "\t"))
			for _, row := range r.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.String()
				}
				fmt.Println(strings.Join(cells, "\t"))
			}
		}
	}
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	dbPath := fs.String("db", "goofi.db", "GOOFI database file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, db, err := openStore(*dbPath)
	if err != nil {
		return err
	}
	defer db.Close()
	targets, err := st.ListTargetSystems()
	if err != nil {
		return err
	}
	fmt.Println("target systems:")
	for _, t := range targets {
		fmt.Printf("  %s\n", t)
	}
	camps, err := st.ListCampaigns()
	if err != nil {
		return err
	}
	fmt.Println("campaigns:")
	for _, c := range camps {
		camp, err := st.GetCampaign(c)
		if err != nil {
			return err
		}
		logged, err := st.CountExperiments(c)
		if err != nil {
			return err
		}
		stored, err := st.StoredBytes(c)
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s %4d experiments planned, %4d logged, %5d B/experiment, workload %s\n",
			c, camp.NumExperiments, logged, stored/int64(max(logged, 1)), camp.Workload.Name)
	}
	return nil
}

func cmdSchema(args []string) error {
	fs := flag.NewFlagSet("schema", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, ddl := range campaign.Schema {
		fmt.Println(ddl + ";")
	}
	fmt.Println(analysis.ResultsDDL + ";")
	return nil
}

func cmdWorkloads(args []string) error {
	fs := flag.NewFlagSet("workloads", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	all := workload.All()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		spec := all[n]
		fmt.Printf("  %-20s in=%d out=%d results=%v\n",
			n, spec.InputPort, spec.OutputPort, spec.ResultSymbols)
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseWindow(s string) (lo, hi uint64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("window must be lo:hi, got %q", s)
	}
	lo, err = strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window low bound: %w", err)
	}
	hi, err = strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad window high bound: %w", err)
	}
	return lo, hi, nil
}
