package analysis

import (
	"context"
	"math"
	"strings"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// runSortCampaign executes a SCIFI campaign and returns its store.
func runSortCampaign(t *testing.T, name string, n int, seed int64) *campaign.Store {
	t.Helper()
	return runSortCampaignWithObserve(t, name, n, seed, nil)
}

func runSortCampaignWithObserve(t *testing.T, name string, n int, seed int64, observe []string) *campaign.Store {
	t.Helper()
	return runCampaign(t, sortCampaign(name, n, seed, observe))
}

// sortCampaign is a SCIFI campaign over the sort16 workload.
func sortCampaign(name string, n int, seed int64, observe []string) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		Observe:        observe,
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
}

// runCampaign executes a SCIFI campaign on a fresh in-memory store.
func runCampaign(t *testing.T, camp *campaign.Campaign) *campaign.Store {
	t.Helper()
	st, err := campaign.NewStore(sqldb.Open())
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
	tgt := scifi.New(thor.DefaultConfig())
	r, err := core.NewRunner(tgt, core.SCIFI, camp, tsd, core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWilsonInterval(t *testing.T) {
	iv := Wilson(50, 100)
	if math.Abs(iv.P-0.5) > 1e-9 {
		t.Errorf("P = %g", iv.P)
	}
	if iv.Lo > 0.5 || iv.Hi < 0.5 {
		t.Errorf("interval [%g, %g] excludes the point estimate", iv.Lo, iv.Hi)
	}
	if iv.Hi-iv.Lo > 0.25 {
		t.Errorf("interval too wide for n=100: %g", iv.Hi-iv.Lo)
	}
	// Edge cases.
	if iv := Wilson(0, 0); iv.N != 0 || iv.P != 0 {
		t.Errorf("Wilson(0,0) = %+v", iv)
	}
	if iv := Wilson(0, 20); iv.Lo != 0 {
		t.Errorf("Wilson(0,20).Lo = %g", iv.Lo)
	}
	if iv := Wilson(20, 20); iv.Hi != 1 {
		t.Errorf("Wilson(20,20).Hi = %g", iv.Hi)
	}
	// Wider n gives a tighter interval.
	narrow := Wilson(500, 1000)
	if narrow.Hi-narrow.Lo >= iv.Hi-iv.Lo {
		t.Error("interval does not tighten with n")
	}
}

func TestClassesAndEffectiveness(t *testing.T) {
	if !ClassDetected.Effective() || !ClassEscaped.Effective() {
		t.Error("detected/escaped must be effective")
	}
	if ClassLatent.Effective() || ClassOverwritten.Effective() {
		t.Error("latent/overwritten must be non-effective")
	}
	if ClassInvalidRun.Effective() {
		t.Error("invalid-run must be non-effective")
	}
	if len(AllClasses()) != 6 {
		t.Error("class list incomplete")
	}
}

// TestInvalidRunExcludedFromRatios: an invalid-run record counts in the
// class tally (against Total) but never in the injected population the
// effectiveness ratios are computed over.
func TestInvalidRunExcludedFromRatios(t *testing.T) {
	// Identical campaign twice: one analyzed untouched as the baseline,
	// one with an experiment record replaced by an invalid run.
	base, err := AnalyzeAndStore(runSortCampaign(t, "inv", 20, 7), "inv")
	if err != nil {
		t.Fatal(err)
	}
	st := runSortCampaign(t, "inv", 20, 7)

	// Replace one experiment's record with an invalid run, the way the
	// scheduler logs one after exhausting retries.
	name := campaign.ExperimentName("inv", 4)
	rec, err := st.GetExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteExperiment(name); err != nil {
		t.Fatal(err)
	}
	rec.Data.Injected = false
	rec.Data.InjectionCycle = 0
	rec.Data.Outcome = campaign.Outcome{
		Status:       campaign.OutcomeInvalidRun,
		Attempts:     3,
		HarnessError: "chaos: readScanChain: scan capture corrupted",
	}
	rec.State = campaign.StateVector{}
	if err := st.LogExperiment(rec); err != nil {
		t.Fatal(err)
	}

	rep, err := AnalyzeAndStore(st, "inv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[ClassInvalidRun] != 1 {
		t.Errorf("invalid-run count = %d, want 1", rep.Counts[ClassInvalidRun])
	}
	if rep.Total != base.Total {
		t.Errorf("total = %d, want %d (invalid slot still accounted)", rep.Total, base.Total)
	}
	if rep.Injected != base.Injected-1 {
		t.Errorf("injected = %d, want %d (invalid run excluded)", rep.Injected, base.Injected-1)
	}
	if f := rep.Fraction(ClassInvalidRun); f != 1.0/float64(rep.Total) {
		t.Errorf("invalid-run fraction = %v, want 1/%d of total", f, rep.Total)
	}
	if !strings.Contains(rep.Render(), "invalid runs") {
		t.Error("report render does not mention invalid runs")
	}
}

func TestAnalyzeCampaign(t *testing.T) {
	st := runSortCampaign(t, "an", 60, 7)
	rep, err := AnalyzeAndStore(st, "an")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 60 {
		t.Fatalf("total = %d", rep.Total)
	}
	// Every experiment lands in exactly one class.
	sum := 0
	for _, c := range AllClasses() {
		sum += rep.Counts[c]
	}
	if sum != rep.Total {
		t.Errorf("class counts sum to %d, total %d", sum, rep.Total)
	}
	// With 60 random single register/cache flips, all four main classes
	// should generally appear; require at least detected + one
	// non-effective class.
	if rep.Counts[ClassDetected] == 0 {
		t.Error("no detected errors")
	}
	if rep.Counts[ClassOverwritten]+rep.Counts[ClassLatent] == 0 {
		t.Error("no non-effective errors")
	}
	// Coverage interval is consistent.
	eff := rep.Counts[ClassDetected] + rep.Counts[ClassEscaped]
	if rep.Coverage.N != eff {
		t.Errorf("coverage n = %d, effective = %d", rep.Coverage.N, eff)
	}
	if rep.Coverage.P < 0 || rep.Coverage.P > 1 {
		t.Errorf("coverage = %g", rep.Coverage.P)
	}
	// Mechanisms recorded for detections.
	mechTotal := 0
	for _, n := range rep.Mechanisms {
		mechTotal += n
	}
	if mechTotal != rep.Counts[ClassDetected] {
		t.Errorf("mechanism counts %d != detected %d", mechTotal, rep.Counts[ClassDetected])
	}
}

func TestRenderReport(t *testing.T) {
	st := runSortCampaign(t, "render", 20, 3)
	rep, err := AnalyzeAndStore(st, "render")
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Render()
	for _, want := range []string{"detected", "escaped", "latent", "overwritten", "detection coverage"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestGeneratedSQLQueries(t *testing.T) {
	st := runSortCampaign(t, "gen", 40, 13)
	rep, err := AnalyzeAndStore(st, "gen")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunGenerated(st, "gen")
	if err != nil {
		t.Fatal(err)
	}
	dist, ok := results["outcome-distribution"]
	if !ok || len(dist.Rows) == 0 {
		t.Fatal("outcome-distribution query returned nothing")
	}
	// The SQL aggregation must agree with the in-memory report.
	sqlCounts := make(map[string]int64)
	for _, row := range dist.Rows {
		sqlCounts[row[0].S] = row[1].I
	}
	for _, c := range AllClasses() {
		if int64(rep.Counts[c]) != sqlCounts[string(c)] {
			t.Errorf("class %s: report %d, SQL %d", c, rep.Counts[c], sqlCounts[string(c)])
		}
	}
	if mech, ok := results["detections-per-mechanism"]; ok && rep.Counts[ClassDetected] > 0 {
		if len(mech.Rows) == 0 {
			t.Error("no mechanism rows despite detections")
		}
	}
}

func TestWriteResultsReplacesOldRows(t *testing.T) {
	// Two full INSERT batches and a partial one.
	const n = 2*resultsBatch + 44
	st := runSortCampaign(t, "rep", n, 5)
	if _, err := AnalyzeAndStore(st, "rep"); err != nil {
		t.Fatal(err)
	}
	// Re-analyze: must not fail on duplicate keys.
	rep, err := AnalyzeAndStore(st, "rep")
	if err != nil {
		t.Fatal(err)
	}
	// Same rows, in the order of the report's details.
	r, err := st.DB().Query(`SELECT experimentName, class FROM AnalysisResults WHERE campaignName = ?`,
		sqldb.Text("rep"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != n || len(rep.Details) != n {
		t.Fatalf("results rows = %d, details = %d, want %d", len(r.Rows), len(rep.Details), n)
	}
	for i, d := range rep.Details {
		if r.Rows[i][0].S != d.Experiment || r.Rows[i][1].S != string(d.Class) {
			t.Fatalf("row %d = %s/%s, want %s/%s", i, r.Rows[i][0].S, r.Rows[i][1].S, d.Experiment, d.Class)
		}
	}
}

func TestRerunAfterAnalysisClearsResults(t *testing.T) {
	// Re-running a campaign after an analysis must not be blocked by the
	// AnalysisResults foreign keys: DeleteExperiments cascades.
	st := runSortCampaign(t, "rerunfk", 5, 3)
	if _, err := AnalyzeAndStore(st, "rerunfk"); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteExperiments("rerunfk"); err != nil {
		t.Fatalf("DeleteExperiments after analysis: %v", err)
	}
	recs, err := st.Experiments("rerunfk")
	if err != nil || len(recs) != 0 {
		t.Errorf("experiments remain: %d, %v", len(recs), err)
	}
	r, err := st.DB().Query(`SELECT COUNT(*) FROM AnalysisResults WHERE campaignName = ?`,
		sqldb.Text("rerunfk"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 0 {
		t.Errorf("analysis rows remain: %d", r.Rows[0][0].I)
	}
}

func TestAnalyzerMissingCampaign(t *testing.T) {
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(st, "ghost"); err == nil {
		t.Error("missing campaign accepted")
	}
}

func TestAnalyzerMissingReference(t *testing.T) {
	// A campaign stored but never run has no reference record.
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	tsd := scifi.TargetSystemData("thor-board")
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	camp := &campaign.Campaign{
		Name: "norun", TargetName: "thor-board", ChainName: "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle", Cycle: 5},
		NumExperiments: 1, Seed: 1,
		Termination: campaign.Termination{TimeoutCycles: 1000},
		Workload:    campaign.WorkloadSpec{Name: "w", Source: "halt"},
		LogMode:     campaign.LogNormal,
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	a, err := New(st, "norun")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err == nil {
		t.Error("analysis without reference run accepted")
	}
}

func TestFailSilenceViolations(t *testing.T) {
	st := runSortCampaign(t, "fs", 60, 7)
	rep, err := AnalyzeAndStore(st, "fs")
	if err != nil {
		t.Fatal(err)
	}
	// Fail-silence violations are a subset of escaped errors and equal
	// EscapedValue for batch workloads (no deadline in this campaign).
	if rep.FailSilence > rep.Counts[ClassEscaped] {
		t.Errorf("fail-silence %d exceeds escaped %d", rep.FailSilence, rep.Counts[ClassEscaped])
	}
	if rep.FailSilence != rep.EscapedValue {
		t.Errorf("fail-silence %d != escaped-value %d (no deadline configured)",
			rep.FailSilence, rep.EscapedValue)
	}
	for _, d := range rep.Details {
		if d.FailSilence() && d.Class != ClassEscaped {
			t.Errorf("%s fail-silence in class %s", d.Experiment, d.Class)
		}
	}
}

func TestObserveRestrictsLatentComparison(t *testing.T) {
	// An identical campaign observed only on cpu.r1 reports fewer (or
	// equal) latent errors than one observing everything: flips parked
	// in unobserved registers are no longer visible differences.
	build := func(name string, observe []string) *Report {
		st := runSortCampaignWithObserve(t, name, 40, 9, observe)
		rep, err := AnalyzeAndStore(st, name)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := build("obs-full", nil)
	narrow := build("obs-narrow", []string{"cpu.r1"})
	if narrow.Counts[ClassLatent] > full.Counts[ClassLatent] {
		t.Errorf("narrow observation found more latent errors (%d) than full (%d)",
			narrow.Counts[ClassLatent], full.Counts[ClassLatent])
	}
	if narrow.Counts[ClassOverwritten] < full.Counts[ClassOverwritten] {
		t.Errorf("narrow observation reduced overwritten count: %d < %d",
			narrow.Counts[ClassOverwritten], full.Counts[ClassOverwritten])
	}
	if narrow.Counts[ClassLatent] == full.Counts[ClassLatent] {
		t.Log("note: identical latent counts; seed produced no unobserved-register flips")
	}
}

func TestDetectionLatencyPositive(t *testing.T) {
	st := runSortCampaign(t, "lat", 50, 21)
	rep, err := AnalyzeAndStore(st, "lat")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts[ClassDetected] > 0 && rep.MeanDetectionLatency < 0 {
		t.Errorf("mean latency = %g", rep.MeanDetectionLatency)
	}
	for _, d := range rep.Details {
		if d.Class == ClassDetected && d.Latency > 200_000 {
			t.Errorf("experiment %s latency %d exceeds timeout", d.Experiment, d.Latency)
		}
	}
}
