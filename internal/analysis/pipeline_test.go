package analysis

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
)

// AnalyzeAndStore classifies on the caller's goroutine while the store
// decodes rows ahead of it and a writer inserts the AnalysisResults
// batches. These tests hold it to what the serial pass did: the error a
// failing pass returns, the rows a failing pass leaves, and the bytes a
// succeeding one stores, whatever GOMAXPROCS is.

// rewriteRecord changes one stored experiment in place. An UPDATE, not
// replaceRecord's delete and insert: the AnalysisResults row of an earlier
// analysis keeps the row from being deleted.
func rewriteRecord(t *testing.T, st *campaign.Store, name string, edit func(*campaign.ExperimentRecord)) {
	t.Helper()
	rec, err := st.GetExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	edit(rec)
	row, err := campaign.EncodeRow(rec)
	if err != nil {
		t.Fatal(err)
	}
	st.DB().MustExec(`UPDATE LoggedSystemState SET experimentData = ?, stateVector = ? WHERE experimentName = ?`,
		row.Cols[4], row.Cols[5], sqldb.Text(name))
}

// storedResults renders a campaign's AnalysisResults rows, "no table"
// where there is no AnalysisResults table at all.
func storedResults(t *testing.T, st *campaign.Store, name string) string {
	t.Helper()
	if !slices.Contains(st.DB().TableNames(), "AnalysisResults") {
		return "no table"
	}
	return resultsTable(t, st, name)
}

// TestAnalysisFailureLeavesResults: a pass that fails returns the error
// the serial analysis returned and leaves the campaign's AnalysisResults
// rows as they were — none on a first analysis, the earlier analysis's on
// a re-analysis. A pass that fails before its first batch of results is
// ready writes nothing at all, not even the table; the late failure, a
// damaged row past the first batch, has the writer's rows replaced by the
// earlier ones.
func TestAnalysisFailureLeavesResults(t *testing.T) {
	type failure struct {
		name string
		n    int
		// absolute stores the campaign's rows whole, so that deleting the
		// reference row leaves rows a pass can read.
		absolute bool
		damage   func(t *testing.T, st *campaign.Store, name string)
		// want is the error, the campaign's name put in; "" asks the
		// oracle for it.
		want string
		// early marks a failure before the first batch of results.
		early bool
	}
	hostile := func(scan []byte, seqs ...int) func(*testing.T, *campaign.Store, string) {
		return func(t *testing.T, st *campaign.Store, name string) {
			ref, err := st.GetExperiment(campaign.ReferenceName(name))
			if err != nil {
				t.Fatal(err)
			}
			// As in TestAnalysisDifferentialScanErrors: a detected run
			// never looks at its scan, a completed one with the
			// reference's results does.
			statuses := []campaign.OutcomeStatus{campaign.OutcomeDetected, campaign.OutcomeCompleted}
			for i, seq := range seqs {
				rewriteRecord(t, st, campaign.ExperimentName(name, seq), func(rec *campaign.ExperimentRecord) {
					rec.Data.Injected = true
					rec.Data.Outcome = campaign.Outcome{Status: statuses[i%2], Cycles: ref.Data.Outcome.Cycles}
					rec.State = campaign.StateVector{Scan: scan, Memory: ref.State.Memory, Outputs: ref.State.Outputs}
				})
			}
		}
	}
	var failures []failure
	for _, c := range scanErrorCases(t) {
		failures = append(failures, failure{name: c.name, n: 10, damage: hostile(c.scan, 0, 1), early: true})
	}
	failures = append(failures,
		failure{name: "no-reference", n: 10, absolute: true, early: true,
			damage: func(t *testing.T, st *campaign.Store, name string) {
				st.DB().MustExec(`DELETE FROM LoggedSystemState WHERE experimentName = ?`,
					sqldb.Text(campaign.ReferenceName(name)))
			},
			want: `analysis: campaign %q has no reference run`},
		failure{name: "late", n: 2*resultsBatch + 40, damage: hostile(scanErrorCases(t)[0].scan, 2*resultsBatch-1, 2*resultsBatch+20)},
	)
	for _, f := range failures {
		for _, again := range []bool{false, true} {
			what := map[bool]string{false: "first", true: "again"}[again]
			t.Run(f.name+"/"+what, func(t *testing.T) {
				name := "fail-" + f.name
				st := runSortCampaign(t, name, f.n, 5)
				if f.absolute {
					storeAbsolute(t, st, name)
				}
				if again {
					if _, err := AnalyzeAndStore(st, name); err != nil {
						t.Fatal(err)
					}
				}
				before := storedResults(t, st, name)
				f.damage(t, st, name)
				want := f.want
				if want == "" {
					_, err := oracleAnalyze(t, st, name)
					if err == nil {
						t.Fatal("the oracle analysed the damaged store")
					}
					want = err.Error()
				} else {
					want = fmt.Sprintf(want, name)
				}
				if storedResults(t, st, name) != before {
					t.Fatal("the oracle wrote results")
				}
				_, err := AnalyzeAndStore(st, name)
				if err == nil || err.Error() != want {
					t.Fatalf("error %v, want %s", err, want)
				}
				after := storedResults(t, st, name)
				// Again: the earlier analysis's rows. First: no table, or,
				// after a late failure, the one the writer created, holding
				// none of the campaign's rows.
				wantAfter := before
				if !again && !f.early {
					wantAfter = ""
				}
				if after != wantAfter {
					t.Errorf("AnalysisResults after the failed pass\n%s\nwant\n%s", after, wantAfter)
				}
			})
		}
	}
}

// TestAnalysisConcurrentPasses: passes over one campaign at once, as two
// requests for a daemon's results make them, all succeed and leave the
// rows one pass leaves, on a first analysis and on a re-analysis. Without
// the results lock one writer's INSERT meets the other's rows, and its
// failure puts back an empty or partial set.
func TestAnalysisConcurrentPasses(t *testing.T) {
	const name, passes = "conc", 4
	st := runSortCampaign(t, name, 3*resultsBatch+7, 5)
	var got []string
	for round := range 3 {
		errs := make(chan error, passes)
		var wg sync.WaitGroup
		for range passes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := AnalyzeAndStore(st, name)
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		got = append(got, storedResults(t, st, name))
	}
	if _, err := AnalyzeAndStore(st, name); err != nil {
		t.Fatal(err)
	}
	want := storedResults(t, st, name)
	for round, g := range got {
		if g != want {
			t.Errorf("round %d: AnalysisResults after concurrent passes\n%s\nwant\n%s", round, g, want)
		}
	}
}

// diskCampaign runs a campaign into a store on disk and returns the
// store file's path, checkpointed and closed.
func diskCampaign(t *testing.T, camp *campaign.Campaign) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.db")
	db, err := sqldb.OpenAt(path, sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	r, err := core.NewRunner(scifi.New(thor.DefaultConfig()), core.SCIFI, camp, tsd, core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// analyzeCopy analyses a copy of the store at path under the given
// GOMAXPROCS, twice — a first analysis and a repeated one — and returns
// the reports and the store file after each checkpoint.
func analyzeCopy(t *testing.T, path, name string, procs int) (reports []string, files [][]byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cp := filepath.Join(t.TempDir(), "copy.db")
	for _, suffix := range []string{"", ".wal"} {
		b, err := os.ReadFile(path + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp+suffix, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	db, err := sqldb.OpenAt(cp, sqldb.SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := campaign.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		rep, err := AnalyzeAndStore(st, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(cp)
		if err != nil {
			t.Fatal(err)
		}
		reports, files = append(reports, rep.Render()), append(files, b)
	}
	return reports, files
}

// TestAnalysisAcrossCores: the analysis stores the same bytes and renders
// the same report on one core as on four — the serial path and the
// parallel one — on a first analysis and a repeated one, for a sort16 and
// a pid-control campaign.
func TestAnalysisAcrossCores(t *testing.T) {
	for _, camp := range []*campaign.Campaign{sortCampaign("cores-sort", 600, 1001, nil), pidCampaign("cores-pid", 200)} {
		t.Run(camp.Name, func(t *testing.T) {
			path := diskCampaign(t, camp)
			oneReports, oneFiles := analyzeCopy(t, path, camp.Name, 1)
			fourReports, fourFiles := analyzeCopy(t, path, camp.Name, 4)
			for i := range oneFiles {
				if oneReports[i] != fourReports[i] {
					t.Errorf("analysis %d: report on one core\n%s\non four\n%s", i+1, oneReports[i], fourReports[i])
				}
				if !bytes.Equal(oneFiles[i], fourFiles[i]) {
					t.Errorf("analysis %d: store files differ (%d and %d bytes)", i+1, len(oneFiles[i]), len(fourFiles[i]))
				}
			}
		})
	}
}
