package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"goofi/internal/analysis"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/preinject"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
)

// runCmd invokes the CLI entry point with a temp-dir database.
func runCmd(t *testing.T, args ...string) error {
	t.Helper()
	return run(args)
}

func dbPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.db")
}

func TestFullPhaseWorkflow(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db, "-target", "thor-board"},
		{"setup", "-db", db, "-campaign", "cli-test", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "8", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "cli-test", "-quiet"},
		{"analyze", "-db", db, "-campaign", "cli-test", "-sql"},
		{"list", "-db", db},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	if _, err := os.Stat(db); err != nil {
		t.Fatalf("database file not written: %v", err)
	}
}

func TestRunParallelBoards(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "par", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "8", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "par", "-boards", "4", "-quiet"},
		{"analyze", "-db", db, "-campaign", "par"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

func TestRunWithPreInjection(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "pi", "-workload", "sort16",
			"-locations", "cpu.r1,cpu.r2,cpu.r8", "-window", "10:1600",
			"-experiments", "5", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "pi", "-pre-injection", "-quiet"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

func TestMergeCommand(t *testing.T) {
	db := dbPath(t)
	base := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "a", "-workload", "sort16",
			"-locations", "cpu.r1", "-window", "10:1600", "-experiments", "3", "-timeout", "100000"},
		{"setup", "-db", db, "-campaign", "b", "-workload", "sort16",
			"-locations", "cpu.r2", "-window", "10:1600", "-experiments", "4", "-timeout", "100000"},
	}
	for _, step := range base {
		if err := runCmd(t, step...); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCmd(t, "merge", "-db", db, "-into", "ab", "a", "b"); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := runCmd(t, "run", "-db", db, "-campaign", "ab", "-quiet"); err != nil {
		t.Fatalf("run merged: %v", err)
	}
}

func TestRerunCommand(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "rr", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "3", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "rr", "-quiet"},
		{"run", "-db", db, "-campaign", "rr", "-rerun", "rr/exp00001", "-quiet"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	os.Stdout = stdout
	w.Close()
	return <-done
}

// TestProgressLineThrottled: without -quiet, goofi run draws the Fig 7
// progress line from the Progress snapshot on a clock, not once per
// experiment: however many experiments, at most one render per
// progressEvery of wall clock plus the final one, which ends the line
// with the campaign done and every experiment counted.
func TestProgressLineThrottled(t *testing.T) {
	const n = 2000
	db := dbPath(t)
	for _, step := range [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "tick", "-workload", "sort16",
			"-window", "10:1600", "-experiments", strconv.Itoa(n), "-timeout", "100000"},
	} {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	var runErr error
	start := time.Now()
	out := captureStdout(t, func() { runErr = runCmd(t, "run", "-db", db, "-campaign", "tick") })
	elapsed := time.Since(start)
	if runErr != nil {
		t.Fatal(runErr)
	}
	renders := strings.Count(out, "\r")
	if limit := int(elapsed/progressEvery) + 2; renders < 1 || renders > limit {
		t.Errorf("%d renders of the progress line in %v, want 1..%d", renders, elapsed, limit)
	}
	last, _, _ := strings.Cut(out[strings.LastIndex(out, "\r")+1:], "\n")
	if want := fmt.Sprintf("[tick] done %d/%d ", n, n); !strings.HasPrefix(last, want) {
		t.Errorf("last render %q, want it to start %q", last, want)
	}
	if !strings.Contains(out, "\ncampaign tick finished: 2000 experiments") {
		t.Errorf("no summary after the progress line:\n%s", out)
	}
}

// rowHook calls at after every experiment end row the sink behind it has
// taken (the reference's not counted) with how many it has taken: the
// hand-over stage logs each row in plan order just before it resolves it,
// so a Stop from at(k) ends the run with rows 0..k-1.
type rowHook struct {
	core.CheckpointSink
	rows int
	at   func(k int)
}

func (h *rowHook) LogExperiment(rec *campaign.ExperimentRecord) error {
	if err := h.CheckpointSink.LogExperiment(rec); err != nil {
		return err
	}
	if rec.Step < 0 && !rec.IsReference() {
		h.rows++
		h.at(h.rows)
	}
	return nil
}

// TestTargetsOutput pins `goofi targets`: each kind's determinism is what
// a target it builds declares (core.TargetDeterministic), so the
// simulated board reads deterministic and a live process
// plan-deterministic.
func TestTargetsOutput(t *testing.T) {
	var err error
	out := captureStdout(t, func() { err = runCmd(t, "targets") })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scifi\n    THOR-S simulated board via scan-chain implemented fault injection\n" +
			"    algorithm: scifi, deterministic (byte-identical reruns)\n",
		"proc\n    live OS process via ptrace: fork, stop, flip, resume, classify (masked/sdc/crash/hang)\n" +
			"    algorithm: swifi-runtime, plan-deterministic (statistical outcomes)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("goofi targets lacks\n%s\nin\n%s", want, out)
		}
	}
}

// TestListOutput pins `goofi list`: the logged column counts a campaign's
// end-of-experiment rows — reference run and re-runs included, detail-mode
// step rows not — without decoding them, and the bytes are those rows'
// (here a whole reference state, a whole re-run and three relative rows).
func TestListOutput(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "idle", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "5", "-timeout", "100000"},
		{"setup", "-db", db, "-campaign", "rr", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "3", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "rr", "-quiet"},
		{"run", "-db", db, "-campaign", "rr", "-rerun", "rr/exp00001", "-quiet"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	got := captureStdout(t, func() {
		if err := runCmd(t, "list", "-db", db); err != nil {
			t.Errorf("goofi list: %v", err)
		}
	})
	want := `target systems:
  thor-board
campaigns:
  idle                    5 experiments planned,    0 logged,     0 B/experiment, workload sort16
  rr                      3 experiments planned,    5 logged,   672 B/experiment, workload sort16
`
	if got != want {
		t.Errorf("goofi list printed\n%s\nwant\n%s", got, want)
	}
}

// TestResumeCommand interrupts a checkpointed campaign mid-run,
// abandons the database file the way a killed process would (no
// compaction, no graceful close), and checks that `goofi resume`
// finishes the campaign and clears the cursor. The pre-injection case
// does the same to a filtered campaign: the filter shapes the plan the
// cursor's hash covers, so resume needs the flag the run had — without
// it the refusal says so, with it the rows equal an uninterrupted run's.
func TestResumeCommand(t *testing.T) {
	for _, tc := range []struct {
		name      string
		locations string
		filtered  bool
		// prunes: the plan has experiments the def-use table proves dead.
		// The pre-injection filter redraws exactly those.
		prunes bool
	}{
		{name: "plain", locations: "cpu", prunes: true},
		{name: "pre-injection", locations: "cpu.r1,cpu.r2,cpu.r8", filtered: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := dbPath(t)
			setup := func(db string) {
				t.Helper()
				for _, step := range [][]string{
					{"configure", "-db", db},
					{"setup", "-db", db, "-campaign", "res", "-workload", "sort16", "-locations", tc.locations,
						"-window", "10:1600", "-experiments", "10", "-timeout", "100000"},
				} {
					if err := runCmd(t, step...); err != nil {
						t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
					}
				}
			}
			setup(db)
			var flags []string
			if tc.filtered {
				flags = []string{"-pre-injection"}
			}

			// The interrupted run: stop after 3 experiments, then walk away
			// from the open database. Recovery must work from the snapshot
			// and write-ahead log alone.
			sdb, err := sqldb.OpenAt(db, sqldb.SyncBarrier)
			if err != nil {
				t.Fatal(err)
			}
			st, err := campaign.NewStore(sdb)
			if err != nil {
				t.Fatal(err)
			}
			camp, err := st.GetCampaign("res")
			if err != nil {
				t.Fatal(err)
			}
			tsd, err := st.GetTargetSystem(camp.TargetName)
			if err != nil {
				t.Fatal(err)
			}
			var r *core.Runner
			opts := []core.RunnerOption{core.WithSink(&rowHook{CheckpointSink: st, at: func(k int) {
				if k == 3 {
					r.Stop()
				}
			}}), core.WithCheckpoints(2)}
			if tc.filtered {
				a, err := preinject.AnalyzeWorkload(thor.DefaultConfig(), camp)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, core.WithInjectionFilter(a.Filter()))
			}
			r, err = core.NewRunner(scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Experiments >= camp.NumExperiments {
				t.Fatalf("interruption failed: %d experiments ran", sum.Experiments)
			}
			if tc.filtered {
				// The case proves nothing unless the filter redrew something.
				if sum.Skipped == 0 {
					t.Fatal("the pre-injection filter rejected no draw: filtered and unfiltered plans are the same")
				}
				err := runCmd(t, "resume", "-db", db, "-campaign", "res", "-quiet")
				if err == nil || !strings.Contains(err.Error(), "plan hash mismatch") ||
					!strings.Contains(err.Error(), "pre-injection filter") {
					t.Fatalf("resume without -pre-injection: %v, want a plan hash mismatch naming the filter", err)
				}
			}

			resume := append([]string{"resume", "-db", db, "-campaign", "res", "-quiet"}, flags...)
			var resumeErr error
			out := captureStdout(t, func() { resumeErr = runCmd(t, resume...) })
			if resumeErr != nil {
				t.Fatalf("goofi %s: %v", strings.Join(resume, " "), resumeErr)
			}
			// The resumed run re-runs the reference, which records the
			// checkpoints its experiments forward from and the def-use table
			// they are pruned from.
			if !regexp.MustCompile(`(?m)^  fast-forwarded [1-9]`).MatchString(out) {
				t.Errorf("goofi resume forwarded nothing:\n%s", out)
			}
			if tc.prunes && !regexp.MustCompile(`(?m)^  pruned: [1-9]`).MatchString(out) {
				t.Errorf("goofi resume pruned nothing:\n%s", out)
			}

			rows := func(db string) []string {
				t.Helper()
				sdb, err := sqldb.OpenAt(db, sqldb.SyncBarrier)
				if err != nil {
					t.Fatal(err)
				}
				defer sdb.Close()
				st, err := campaign.NewStore(sdb)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := st.Experiments("res")
				if err != nil {
					t.Fatal(err)
				}
				if cp, err := st.GetCheckpoint("res"); err != nil {
					t.Fatal(err)
				} else if cp != nil {
					t.Errorf("completed campaign still has a cursor: %+v", cp)
				}
				out := make([]string, len(recs))
				for i, rec := range recs {
					b, err := json.Marshal(rec)
					if err != nil {
						t.Fatal(err)
					}
					out[i] = string(b)
				}
				return out
			}
			resumed := rows(db)
			if len(resumed) != camp.NumExperiments+1 { // + reference run
				t.Errorf("after resume: %d logged records, want %d", len(resumed), camp.NumExperiments+1)
			}

			// The same definition run without interruption logs the same rows.
			solo := dbPath(t)
			setup(solo)
			run := append([]string{"run", "-db", solo, "-campaign", "res", "-quiet"}, flags...)
			if err := runCmd(t, run...); err != nil {
				t.Fatalf("goofi %s: %v", strings.Join(run, " "), err)
			}
			if want := rows(solo); !slices.Equal(resumed, want) {
				t.Errorf("resumed campaign's rows differ from the uninterrupted run's (%d vs %d rows)",
					len(resumed), len(want))
			}

			// The resumed data feeds the analysis phase like any other.
			if err := runCmd(t, "analyze", "-db", db, "-campaign", "res"); err != nil {
				t.Fatalf("goofi analyze after resume: %v", err)
			}
		})
	}
}

func TestResumeWithoutStateFails(t *testing.T) {
	db := dbPath(t)
	for _, step := range [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "fresh", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "3", "-timeout", "100000"},
	} {
		if err := runCmd(t, step...); err != nil {
			t.Fatal(err)
		}
	}
	// Positional campaign name, never run: nothing to resume.
	if err := runCmd(t, "resume", "-db", db, "-quiet", "fresh"); err == nil {
		t.Error("resume of a never-started campaign succeeded")
	}
	if err := runCmd(t, "resume", "-db", db, "-quiet"); err == nil {
		t.Error("resume without a campaign name succeeded")
	}
}

func TestSWIFITechniques(t *testing.T) {
	db := dbPath(t)
	steps := [][]string{
		{"configure", "-db", db, "-target", "thor-swifi", "-kind", "swifi", "-target-param", "image-bytes=512"},
		{"setup", "-db", db, "-campaign", "sw", "-target", "thor-swifi",
			"-chain", "memory", "-locations", "mem", "-workload", "sort16",
			"-trigger", "cycle", "-trigger-cycle", "0",
			"-experiments", "5", "-timeout", "100000"},
		{"run", "-db", db, "-campaign", "sw", "-technique", "swifi-preruntime", "-quiet"},
		{"analyze", "-db", db, "-campaign", "sw"},
	}
	for _, step := range steps {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
}

func TestSchemaAndWorkloads(t *testing.T) {
	if err := runCmd(t, "schema"); err != nil {
		t.Error(err)
	}
	if err := runCmd(t, "workloads"); err != nil {
		t.Error(err)
	}
	if err := runCmd(t, "help"); err != nil {
		t.Error(err)
	}
}

func TestErrorPaths(t *testing.T) {
	db := dbPath(t)
	cases := [][]string{
		{},
		{"bogus"},
		{"setup", "-db", db}, // missing -campaign
		{"setup", "-db", db, "-campaign", "x", "-workload", "nope"},
		{"run", "-db", db},                      // missing -campaign
		{"run", "-db", db, "-campaign", "none"}, // unknown campaign
		{"analyze", "-db", db},
		{"merge", "-db", db, "-into", "x"}, // too few sources
		{"configure", "-db", db, "-kind", "alien"},
		{"setup", "-db", db, "-campaign", "x", "-window", "nonsense"},
	}
	for _, args := range cases {
		if err := runCmd(t, args...); err == nil {
			t.Errorf("goofi %v succeeded, want error", args)
		}
	}
}

func TestRunUnknownTechnique(t *testing.T) {
	db := dbPath(t)
	if err := runCmd(t, "configure", "-db", db); err != nil {
		t.Fatal(err)
	}
	if err := runCmd(t, "setup", "-db", db, "-campaign", "t", "-workload", "sort16",
		"-window", "10:1600", "-experiments", "1", "-timeout", "100000"); err != nil {
		t.Fatal(err)
	}
	if err := runCmd(t, "run", "-db", db, "-campaign", "t", "-technique", "telepathy"); err == nil {
		t.Error("unknown technique accepted")
	}
}

func TestParseWindow(t *testing.T) {
	lo, hi, err := parseWindow("10:200")
	if err != nil || lo != 10 || hi != 200 {
		t.Errorf("parseWindow = %d %d %v", lo, hi, err)
	}
	for _, bad := range []string{"", "5", "a:b", "1:b", "a:2"} {
		if _, _, err := parseWindow(bad); err == nil {
			t.Errorf("parseWindow(%q) accepted", bad)
		}
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Error("splitList(\"\") != nil")
	}
}

// TestRunWithChaosAndRetries: the chaos target makes the harness flaky
// and the retry flags absorb it — the campaign must complete and analyze
// with no invalid runs, after at least one retry.
func TestRunWithChaosAndRetries(t *testing.T) {
	db := dbPath(t)
	for _, step := range [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "flaky", "-workload", "sort16",
			"-window", "10:1600", "-experiments", "6", "-timeout", "100000"},
	} {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	var err error
	out := captureStdout(t, func() {
		err = runChaos(t, "run", "-db", db, "-campaign", "flaky", "-quiet",
			"-target", chaosKind, "-target-param", "scan-read=0.4",
			"-target-param", "max-faults=4", "-target-param", "seed=11",
			"-max-retries", "6")
	})
	if err != nil {
		t.Fatalf("goofi run: %v", err)
	}
	var retried, invalid, quarantined int
	if i := strings.Index(out, "harness recovery: "); i < 0 {
		t.Fatalf("the run retried nothing — the fault model never fired:\n%s", out)
	} else if _, err := fmt.Sscanf(out[i:], "harness recovery: %d retries, %d invalid runs, %d boards quarantined",
		&retried, &invalid, &quarantined); err != nil {
		t.Fatalf("harness recovery line: %v\n%s", err, out)
	}
	if retried < 1 || invalid != 0 {
		t.Errorf("%d retries, %d invalid runs; want at least 1 and 0", retried, invalid)
	}
	t.Logf("%d retries absorbed", retried)
	if err := runCmd(t, "analyze", "-db", db, "-campaign", "flaky"); err != nil {
		t.Fatalf("goofi analyze: %v", err)
	}
	st, sdb, err := openStore(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	recs, err := st.Experiments("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 { // reference + 6
		t.Fatalf("store holds %d records, want 7", len(recs))
	}
	for _, rec := range recs {
		if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
			t.Errorf("%s is invalid despite retries", rec.Name)
		}
	}
}

// TestResumeRetryInvalid: a campaign run against an unrecoverable chaos
// harness records every experiment that reaches a board as an invalid
// run; goofi resume -retry-invalid against a healthy harness re-attempts
// exactly those and completes them.
func TestResumeRetryInvalid(t *testing.T) {
	const planned, wantInvalid = 16, 5
	db := dbPath(t)
	for _, step := range [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "sick", "-workload", "sort16",
			"-window", "10:1600", "-experiments", strconv.Itoa(planned), "-timeout", "100000"},
	} {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	// Every DR write exchange fails. The reference run never writes the
	// scan chain, so it completes; the provable no-ops are logged from it
	// without touching the harness (11 of this plan's 16), and every
	// experiment that does need a board burns its one retry and is
	// recorded invalid.
	if err := runChaos(t, "run", "-db", db, "-campaign", "sick", "-quiet",
		"-target", chaosKind, "-target-param", "scan-write=1", "-max-retries", "1"); err != nil {
		t.Fatalf("goofi run: %v", err)
	}
	// countInvalid returns the stored records and how many are invalid.
	countInvalid := func() (total, invalid int) {
		st, sdb, err := openStore(db)
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		recs, err := st.Experiments("sick")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
				invalid++
			}
		}
		return len(recs), invalid
	}
	// Conservation: planned = accepted + invalid, the pruned among the
	// accepted.
	if total, invalid := countInvalid(); total != planned+1 || invalid != wantInvalid {
		t.Fatalf("%d records, %d invalid; want %d (reference + %d) and %d",
			total, invalid, planned+1, planned, wantInvalid)
	}

	// A plain resume has nothing to do: invalid slots are final.
	if err := runCmd(t, "resume", "-db", db, "-campaign", "sick", "-quiet"); err != nil {
		t.Fatalf("plain resume: %v", err)
	}
	if _, invalid := countInvalid(); invalid != wantInvalid {
		t.Fatalf("%d invalid after a plain resume, want %d", invalid, wantInvalid)
	}

	// Opting in re-attempts them against the now-healthy harness.
	if err := runCmd(t, "resume", "-db", db, "-campaign", "sick", "-quiet",
		"-retry-invalid", "-max-retries", "2"); err != nil {
		t.Fatalf("resume -retry-invalid: %v", err)
	}
	if total, invalid := countInvalid(); total != planned+1 || invalid != 0 {
		t.Fatalf("%d records, %d invalid after -retry-invalid; want %d and 0", total, invalid, planned+1)
	}
}

// TestRetryInvalidLeavesNoHoles: `resume -retry-invalid` deletes the
// invalid runs' rows, and a run that ends before it saves a cursor — here
// its reference fails — must not leave those experiments skipped for good
// behind the cursor an earlier run saved while they were stored: the next
// healthy resume runs them, and the campaign ends whole.
func TestRetryInvalidLeavesNoHoles(t *testing.T) {
	const planned, stopAt = 16, 12
	db := dbPath(t)
	for _, step := range [][]string{
		{"configure", "-db", db},
		{"setup", "-db", db, "-campaign", "sick", "-workload", "sort16",
			"-window", "10:1600", "-experiments", strconv.Itoa(planned), "-timeout", "100000"},
	} {
		if err := runCmd(t, step...); err != nil {
			t.Fatalf("goofi %s: %v", strings.Join(step, " "), err)
		}
	}
	// countInvalid returns the stored records and how many are invalid.
	countInvalid := func() (total, invalid int) {
		st, sdb, err := openStore(db)
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		recs, err := st.Experiments("sick")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
				invalid++
			}
		}
		return len(recs), invalid
	}

	// The first run, on a harness whose every scan write fails, stops
	// part-way with invalid runs durable and a cursor saved behind them.
	sdb, err := sqldb.OpenAt(db, sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	st, err := campaign.NewStore(sdb)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := st.GetCampaign("sick")
	if err != nil {
		t.Fatal(err)
	}
	tsd, err := st.GetTargetSystem(camp.TargetName)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := core.LookupTarget(chaosKind)
	if !ok {
		t.Fatal("no chaos target")
	}
	chaosBoards.Store(0)
	target, err := info.New(core.TargetConfig{Params: map[string]string{"scan-write": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	var r *core.Runner
	r, err = core.NewRunner(target, core.SCIFI, camp, tsd,
		core.WithSink(&rowHook{CheckpointSink: st, at: func(k int) {
			if k == stopAt {
				r.Stop()
			}
		}}),
		core.WithCheckpoints(2), core.WithRetryPolicy(core.RetryPolicy{MaxRetries: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cp, err := st.GetCheckpoint("sick"); err != nil || cp == nil {
		t.Fatalf("the stopped run saved no cursor (%v)", err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	total, invalid := countInvalid()
	if total != stopAt+1 || invalid == 0 {
		t.Fatalf("stopped with %d records, %d invalid; want %d and some invalid", total, invalid, stopAt+1)
	}

	// -retry-invalid deletes them; every scan capture is corrupted, so the
	// reference run fails and the run saves no cursor.
	if err := runChaos(t, "resume", "-db", db, "-campaign", "sick", "-quiet", "-retry-invalid",
		"-target", chaosKind, "-target-param", "scan-read=1"); err == nil {
		t.Fatal("resume on a harness that corrupts every capture succeeded")
	}
	if left, stillInvalid := countInvalid(); left != total-invalid || stillInvalid != 0 {
		t.Fatalf("after -retry-invalid: %d records, %d invalid; want %d and 0", left, stillInvalid, total-invalid)
	}

	// A healthy resume re-attempts them with the rest of the plan.
	if err := runCmd(t, "resume", "-db", db, "-campaign", "sick", "-quiet"); err != nil {
		t.Fatalf("healthy resume: %v", err)
	}
	if total, invalid := countInvalid(); total != planned+1 || invalid != 0 {
		t.Fatalf("%d records, %d invalid after the healthy resume; want %d and 0", total, invalid, planned+1)
	}
}

// TestResumeParentBuildStore: a store the build before relative rows wrote
// — the quickstart campaign stopped half-way, every state whole — reads as
// it is, and `goofi resume` finishes it with rows relative to that old
// reference row, to the report of an uninterrupted run (the golden file of
// golden_test.go). The store was made by the parent commit's own binaries:
// configure, setup, and a run through core.Assemble stopped after 50
// experiments and compacted.
func TestResumeParentBuildStore(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "..", "internal", "campaign", "testdata", "parent-quickstart-half.db"))
	if err != nil {
		t.Fatal(err)
	}
	db := dbPath(t)
	if err := os.WriteFile(db, old, 0o644); err != nil {
		t.Fatal(err)
	}
	// report analyzes the store and counts its end rows by form.
	report := func() (rep *analysis.Report, absolute, relative int) {
		t.Helper()
		sdb, err := sqldb.OpenAt(db, sqldb.SyncBarrier)
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		st, err := campaign.NewStore(sdb)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = analysis.AnalyzeAndStore(st, "quickstart"); err != nil {
			t.Fatal(err)
		}
		r, err := sdb.Query(`SELECT stateVector FROM LoggedSystemState WHERE campaignName = ? AND step = -1`,
			sqldb.Text("quickstart"))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			if row[0].B[0] == '{' {
				absolute++
			} else {
				relative++
			}
		}
		return rep, absolute, relative
	}
	if rep, absolute, relative := report(); rep.Total != 50 || absolute != 51 || relative != 0 {
		t.Fatalf("the parent build's store: %d experiments, %d whole and %d relative rows; want 50, 51, 0",
			rep.Total, absolute, relative)
	}
	if err := runCmd(t, "resume", "-db", db, "-campaign", "quickstart", "-quiet"); err != nil {
		t.Fatal(err)
	}
	rep, absolute, relative := report()
	if absolute != 51 || relative != 50 {
		t.Errorf("after resume: %d whole and %d relative rows, want 51 and 50", absolute, relative)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "quickstart_report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(); got != string(want) {
		t.Errorf("resumed report\n%s\nwant the golden\n%s", got, want)
	}
}

// TestResumeParentBuildWAL: a store the parent build left with its rows in
// the write-ahead log alone — the quickstart campaign stopped after 50
// experiments and closed with no checkpoint, so the snapshot holds the
// schema, the target and the campaign, and the log the 51 end rows and
// their cursor saves — replays record for record and resumes to the report
// of an uninterrupted run. Every logged statement must still parse: replay
// refuses the store otherwise. Made by the parent commit's own packages
// from parent-quickstart-half.db's target and campaign.
func TestResumeParentBuildWAL(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "campaign", "testdata")
	db := dbPath(t)
	for _, f := range [][2]string{{"parent-quickstart-wal.db", db}, {"parent-quickstart-wal.db.wal", sqldb.WALPath(db)}} {
		b, err := os.ReadFile(filepath.Join(dir, f[0]))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f[1], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := sqldb.Open()
	if err := snapshot.LoadFile(db); err != nil {
		t.Fatal(err)
	}
	count := func(sdb *sqldb.DB) int64 {
		t.Helper()
		r, err := sdb.Query(`SELECT COUNT(*) FROM LoggedSystemState`)
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows[0][0].I
	}
	if n := count(snapshot); n != 0 {
		t.Fatalf("the snapshot holds %d rows; the fixture's rows must live in its log", n)
	}
	sdb, err := sqldb.OpenAt(db, sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	n := count(sdb)
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 51 {
		t.Fatalf("the replayed log holds %d rows, want the reference and 50 experiments", n)
	}
	if err := runCmd(t, "resume", "-db", db, "-campaign", "quickstart", "-quiet"); err != nil {
		t.Fatal(err)
	}
	sdb, err = sqldb.OpenAt(db, sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	st, err := campaign.NewStore(sdb)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.AnalyzeAndStore(st, "quickstart")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "quickstart_report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Render(); got != string(want) {
		t.Errorf("resumed report\n%s\nwant the golden\n%s", got, want)
	}
}

// TestRunBoardCountWritesSameFiles: a campaign run on one board or on three
// leaves the same database and log, byte for byte — rows, cursor saves and
// their order — for sort16 and for the PID loop against its plant. The
// hand-over stage gives rows and cursors to the store in plan order
// whichever board ran an experiment.
func TestRunBoardCountWritesSameFiles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		define []string
	}{
		{"sort16", []string{"-workload", "sort16", "-locations", "cpu", "-window", "10:1600",
			"-timeout", "100000", "-experiments", "600", "-seed", "1001"}},
		{"pid", []string{"-workload", "pid-control", "-envsim", "first-order-plant",
			"-locations", "cpu,icache,dcache", "-window", "200:8000", "-timeout", "4000000",
			"-max-iterations", "200", "-experiments", "400", "-seed", "7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "base.db")
			if err := runCmd(t, "configure", "-db", base, "-target", "thor-board"); err != nil {
				t.Fatal(err)
			}
			if err := runCmd(t, append([]string{"setup", "-db", base, "-campaign", "c"}, tc.define...)...); err != nil {
				t.Fatal(err)
			}
			var first map[string][]byte
			for _, boards := range []int{1, 3} {
				db := filepath.Join(dir, "b"+strconv.Itoa(boards)+".db")
				files := map[string][]byte{}
				for _, ext := range []string{"", ".wal"} {
					b, err := os.ReadFile(base + ext)
					if err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
					if err == nil {
						if err := os.WriteFile(db+ext, b, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := runCmd(t, "run", "-db", db, "-campaign", "c", "-boards", strconv.Itoa(boards), "-quiet"); err != nil {
					t.Fatal(err)
				}
				for _, ext := range []string{"", ".wal"} {
					b, err := os.ReadFile(db + ext)
					if err != nil && !os.IsNotExist(err) {
						t.Fatal(err)
					}
					files[ext] = b
				}
				if first == nil {
					first = files
					continue
				}
				for ext, b := range files {
					if !bytes.Equal(b, first[ext]) {
						t.Errorf("-boards %d: %s%s differs from -boards 1's (%d bytes against %d)",
							boards, filepath.Base(db), ext, len(b), len(first[ext]))
					}
				}
			}
		})
	}
}
