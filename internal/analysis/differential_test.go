package analysis

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/scanchain"
	"goofi/internal/sqldb"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

// The oracle below is the analysis as it stood before it was streamed:
// every record materialised, the reference scan unpacked per row, the
// observe list walked per differing bit, one INSERT per result. The
// differential runs it and AnalyzeAndStore over the same stores and
// wants the same Details, the same rendered report, the same
// AnalysisResults rows and the same errors.

// oracleObserve is the observe list as locations.
func oracleObserve(t *testing.T, a *Analyzer) []scanchain.Location {
	t.Helper()
	m, err := a.tsd.Chain(a.camp.ChainName)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.camp.Observe) > 0 {
		return m.Select(a.camp.Observe...)
	}
	return m.Writable()
}

func oracleScanDiff(observe []scanchain.Location, rec, ref *campaign.ExperimentRecord) (int, error) {
	if len(rec.State.Scan) == 0 || len(ref.State.Scan) == 0 {
		return 0, nil
	}
	var rv, fv bitvec.Vector
	if err := rv.UnmarshalBinary(rec.State.Scan); err != nil {
		return 0, fmt.Errorf("analysis: experiment scan state: %w", err)
	}
	if err := fv.UnmarshalBinary(ref.State.Scan); err != nil {
		return 0, fmt.Errorf("analysis: reference scan state: %w", err)
	}
	if rv.Len() != fv.Len() {
		return 0, fmt.Errorf("analysis: scan length mismatch %d vs %d", rv.Len(), fv.Len())
	}
	x, err := rv.Xor(&fv)
	if err != nil {
		return 0, err
	}
	diff := 0
	for _, b := range x.OnesPositions() {
		for _, loc := range observe {
			if b >= loc.Offset && b < loc.End() {
				diff++
				break
			}
		}
	}
	return diff, nil
}

func oracleClassify(a *Analyzer, observe []scanchain.Location, rec, ref *campaign.ExperimentRecord) (Details, error) {
	d := Details{Experiment: rec.Name, Cycles: rec.Data.Outcome.Cycles, Recovered: rec.Data.Outcome.Recovered}
	if rec.Data.Outcome.Status == campaign.OutcomeInvalidRun {
		d.Class = ClassInvalidRun
		return d, nil
	}
	if !rec.Data.Injected {
		d.Class = ClassNotInjected
		return d, nil
	}
	out := rec.Data.Outcome
	switch out.Status {
	case campaign.OutcomeMasked:
		d.Class = ClassOverwritten
		return d, nil
	case campaign.OutcomeSDC:
		d.Class = ClassEscaped
		d.WrongOutput = true
		return d, nil
	case campaign.OutcomeCrash:
		d.Class = ClassDetected
		d.Mechanism = out.Mechanism
		return d, nil
	case campaign.OutcomeHang:
		d.Class = ClassEscaped
		d.Timeliness = true
		return d, nil
	case campaign.OutcomeDetected:
		d.Class = ClassDetected
		d.Mechanism = out.Mechanism
		if out.DetectionCycle >= rec.Data.InjectionCycle {
			d.Latency = out.DetectionCycle - rec.Data.InjectionCycle
		}
		return d, nil
	}
	wl := &a.camp.Workload
	d.WrongMemory = !memoryEqual(rec.State.Memory, ref.State.Memory, wl.ResultTolerance)
	d.WrongOutput = !outputsEqual(rec.State.Outputs, ref.State.Outputs, wl.OutputTail, wl.OutputTolerance)
	d.Timeliness = out.Status == campaign.OutcomeTimeout ||
		(wl.DeadlineCycles > 0 && out.Cycles > wl.DeadlineCycles)
	if d.WrongMemory || d.WrongOutput || d.Timeliness {
		d.Class = ClassEscaped
		return d, nil
	}
	diff, err := oracleScanDiff(observe, rec, ref)
	if err != nil {
		return d, err
	}
	d.StateDiffBits = diff
	d.Class = ClassOverwritten
	if diff > 0 {
		d.Class = ClassLatent
	}
	return d, nil
}

// oracleAnalyze is the old Run followed by the old WriteResults.
func oracleAnalyze(t *testing.T, st *campaign.Store, name string) (*Report, error) {
	t.Helper()
	a, err := New(st, name)
	if err != nil {
		t.Fatal(err)
	}
	observe := oracleObserve(t, a)
	ref, err := st.GetExperiment(campaign.ReferenceName(name))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Campaign: name, Counts: make(map[Class]int), Mechanisms: make(map[string]int),
		OutcomeClasses: make(map[campaign.OutcomeStatus]int)}
	var latencySum uint64
	var latencyN int
	for _, rec := range recs {
		if rec.IsReference() || rec.Parent != "" {
			continue
		}
		d, err := oracleClassify(a, observe, rec, ref)
		if err != nil {
			return nil, err
		}
		rep.Total++
		if rec.Data.Injected {
			rep.Injected++
		}
		rep.Counts[d.Class]++
		rep.Recovered += d.Recovered
		switch rec.Data.Outcome.Status {
		case campaign.OutcomeMasked, campaign.OutcomeSDC, campaign.OutcomeCrash, campaign.OutcomeHang:
			rep.OutcomeClasses[rec.Data.Outcome.Status]++
		}
		switch d.Class {
		case ClassDetected:
			rep.Mechanisms[d.Mechanism]++
			latencySum += d.Latency
			latencyN++
		case ClassEscaped:
			if d.Timeliness {
				rep.EscapedTiming++
			} else {
				rep.EscapedValue++
			}
			if d.FailSilence() {
				rep.FailSilence++
			}
		}
		rep.Details = append(rep.Details, d)
	}
	effective := rep.Counts[ClassDetected] + rep.Counts[ClassEscaped]
	rep.Coverage = Wilson(rep.Counts[ClassDetected], effective)
	rep.EffectiveRate = Wilson(effective, rep.Injected)
	if latencyN > 0 {
		rep.MeanDetectionLatency = float64(latencySum) / float64(latencyN)
	}

	db := st.DB()
	db.MustExec(ResultsDDL)
	db.MustExec(ResultsCampaignIndex)
	db.MustExec(`DELETE FROM AnalysisResults WHERE campaignName = ?`, sqldb.Text(name))
	for _, d := range rep.Details {
		mech := sqldb.Null()
		if d.Mechanism != "" {
			mech = sqldb.Text(d.Mechanism)
		}
		db.MustExec(`INSERT INTO AnalysisResults VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			sqldb.Text(d.Experiment), sqldb.Text(name), sqldb.Text(string(d.Class)),
			mech, sqldb.Int(int64(d.Cycles)), sqldb.Int(int64(d.Latency)),
			sqldb.Bool(d.WrongOutput), sqldb.Bool(d.WrongMemory), sqldb.Bool(d.Timeliness),
			sqldb.Int(int64(d.StateDiffBits)), sqldb.Int(int64(d.Recovered)))
	}
	return rep, nil
}

// resultsTable renders a campaign's AnalysisResults rows.
func resultsTable(t *testing.T, st *campaign.Store, name string) string {
	t.Helper()
	r, err := st.DB().Query(`SELECT * FROM AnalysisResults WHERE campaignName = ? ORDER BY experimentName`,
		sqldb.Text(name))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, row := range r.Rows {
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte('\t')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// replaceRecord rewrites one stored experiment.
func replaceRecord(t *testing.T, st *campaign.Store, name string, edit func(*campaign.ExperimentRecord)) {
	t.Helper()
	rec, err := st.GetExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteExperiment(name); err != nil {
		t.Fatal(err)
	}
	edit(rec)
	if err := st.LogExperiment(rec); err != nil {
		t.Fatal(err)
	}
}

// storeAbsolute rewrites a campaign's rows with their whole states, the
// form every build before the relative one stored.
func storeAbsolute(t *testing.T, st *campaign.Store, name string) {
	t.Helper()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteExperiments(name); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		rec.Ref, rec.ScanDiff = nil, nil
	}
	if err := st.LogExperimentBatch(recs); err != nil {
		t.Fatal(err)
	}
}

func pidCampaign(name string, n int) *campaign.Campaign {
	wl := workload.PID()
	wl.OutputTail = 10
	wl.OutputTolerance = 512
	wl.ResultTolerance = 512
	return &campaign.Campaign{
		Name: name, TargetName: "thor-board", ChainName: "internal",
		Locations:      []string{"cpu", "icache", "dcache"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{200, 8000},
		NumExperiments: n, Seed: 3,
		Termination: campaign.Termination{TimeoutCycles: 400_000, MaxIterations: 80},
		Workload:    wl,
		EnvSim:      &campaign.EnvSimSpec{Name: "first-order-plant"},
		LogMode:     campaign.LogNormal,
	}
}

func TestAnalysisDifferential(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, name string) *campaign.Store
	}{
		{"quickstart", func(t *testing.T, name string) *campaign.Store {
			return runSortCampaign(t, name, 100, 2026)
		}},
		{"pid-tail-tolerance", func(t *testing.T, name string) *campaign.Store {
			return runCampaign(t, pidCampaign(name, 60))
		}},
		{"observe-restricted", func(t *testing.T, name string) *campaign.Store {
			return runSortCampaignWithObserve(t, name, 60, 9, []string{"cpu.r0", "cpu.r1", "cpu.r2", "cpu.r3", "cpu.r4", "cpu.r5", "cpu.pc"})
		}},
		{"invalid-runs", func(t *testing.T, name string) *campaign.Store {
			st := runSortCampaign(t, name, 30, 7)
			for _, seq := range []int{4, 17} {
				replaceRecord(t, st, campaign.ExperimentName(name, seq), func(rec *campaign.ExperimentRecord) {
					rec.Data.Injected = false
					rec.Data.InjectionCycle = 0
					rec.Data.Outcome = campaign.Outcome{Status: campaign.OutcomeInvalidRun, Attempts: 3,
						HarnessError: "chaos: readScanChain: scan capture corrupted"}
					rec.State = campaign.StateVector{}
				})
			}
			return st
		}},
		{"proc-outcomes", func(t *testing.T, name string) *campaign.Store {
			st := runSortCampaign(t, name, 12, 5)
			statuses := []campaign.OutcomeStatus{campaign.OutcomeMasked, campaign.OutcomeSDC,
				campaign.OutcomeCrash, campaign.OutcomeHang}
			for seq := 0; seq < 12; seq++ {
				replaceRecord(t, st, campaign.ExperimentName(name, seq), func(rec *campaign.ExperimentRecord) {
					rec.Data.Injected = true
					rec.Data.Outcome = campaign.Outcome{Status: statuses[seq%4], Cycles: uint64(80 + seq), Attempts: 1}
					if rec.Data.Outcome.Status == campaign.OutcomeCrash {
						rec.Data.Outcome.Mechanism = []string{"signal:SIGSEGV", "exit:2"}[seq%8/4]
					}
					rec.State = campaign.StateVector{Memory: map[string][]byte{"stdout": []byte("out")}}
				})
			}
			return st
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			name := "diff-" + c.name
			st := c.build(t, name)
			want, err := oracleAnalyze(t, st, name)
			if err != nil {
				t.Fatal(err)
			}
			wantTable := resultsTable(t, st, name)
			got, err := AnalyzeAndStore(st, name)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Details) != got.Total || got.Total == 0 {
				t.Fatalf("%d details for %d experiments", len(got.Details), got.Total)
			}
			if !reflect.DeepEqual(got.Details, want.Details) {
				for i := range want.Details {
					if i >= len(got.Details) || got.Details[i] != want.Details[i] {
						t.Fatalf("details differ at %d: got %+v, want %+v", i, got.Details[i], want.Details[i])
					}
				}
				t.Fatalf("%d details, want %d", len(got.Details), len(want.Details))
			}
			if got.Render() != want.Render() {
				t.Errorf("report\n%s\nwant\n%s", got.Render(), want.Render())
			}
			if gotTable := resultsTable(t, st, name); gotTable != wantTable {
				t.Errorf("AnalysisResults\n%s\nwant\n%s", gotTable, wantTable)
			}
		})
	}
}

// hostileScan is a damaged absolute scan state: a length header the eight
// bytes of body after it cannot honour.
func hostileScan(header uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 16), header)[:16]
}

// scanErrorCase is a scan state a row's classification cannot compare
// with the reference's, and the start of the error that says so.
type scanErrorCase struct {
	name string
	scan []byte
	want string
}

func scanErrorCases(t *testing.T) []scanErrorCase {
	short, err := bitvec.New(64).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return []scanErrorCase{
		{"length-mismatch", short, "analysis: scan length mismatch 64 vs "},
		{"truncated-header", []byte{1, 2, 3}, "analysis: experiment scan state: bitvec: truncated header: 3 bytes"},
		{"truncated-body", short[:12], "analysis: experiment scan state: bitvec: truncated body: want 16 bytes, have 12"},
		// Length headers that are negative as an int: the first used to
		// panic in make, the second to decode as a vector of -1 bits.
		{"hostile-length-makeslice", hostileScan(0xFFFFFFFFFFFFFF80), "analysis: experiment scan state: bitvec: truncated body: header says 18446744073709551488 bits"},
		{"hostile-length-minus-one", hostileScan(0xFFFFFFFFFFFFFFFF), "analysis: experiment scan state: bitvec: truncated body: header says 18446744073709551615 bits"},
		{"hostile-length-sign-bit", hostileScan(1<<63 + 5), "analysis: experiment scan state: bitvec: truncated body: header says 9223372036854775813 bits"},
	}
}

// TestAnalysisDifferentialScanErrors: a row whose scan state cannot be
// compared with the reference's fails the analysis with the text it
// always had — and only when classification gets as far as the scan.
func TestAnalysisDifferentialScanErrors(t *testing.T) {
	for _, c := range scanErrorCases(t) {
		t.Run(c.name, func(t *testing.T) {
			name := "scan-" + c.name
			st := runSortCampaign(t, name, 10, 5)
			ref, err := st.GetExperiment(campaign.ReferenceName(name))
			if err != nil {
				t.Fatal(err)
			}
			// A completed run with the reference's results reaches the
			// latent comparison; a detected one never looks at its scan.
			for seq, status := range []campaign.OutcomeStatus{campaign.OutcomeDetected, campaign.OutcomeCompleted} {
				replaceRecord(t, st, campaign.ExperimentName(name, seq), func(rec *campaign.ExperimentRecord) {
					rec.Data.Injected = true
					rec.Data.Outcome = campaign.Outcome{Status: status, Cycles: ref.Data.Outcome.Cycles}
					rec.State = campaign.StateVector{Scan: c.scan, Memory: ref.State.Memory, Outputs: ref.State.Outputs}
				})
			}
			_, wantErr := oracleAnalyze(t, st, name)
			_, err = AnalyzeAndStore(st, name)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("error %v, oracle's %v", err, wantErr)
			}
			if !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("error %q, want prefix %q", err, c.want)
			}
			if err := st.DeleteExperiment(campaign.ExperimentName(name, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := AnalyzeAndStore(st, name); err != nil {
				t.Errorf("with only the detected row damaged: %v", err)
			}
		})
	}
	// A reference whose own scan is damaged is reported by the first row
	// that needs it, after that row's own scan has been accepted. Only a
	// store of whole states gets this far: a row stored relative to the
	// reference fails to decode against a damaged one (the campaign
	// package's TestRelativeRowIntegrity).
	st := runSortCampaign(t, "scan-ref", 10, 5)
	storeAbsolute(t, st, "scan-ref")
	replaceRecord(t, st, campaign.ReferenceName("scan-ref"), func(rec *campaign.ExperimentRecord) {
		rec.State.Scan = []byte{9}
	})
	_, wantErr := oracleAnalyze(t, st, "scan-ref")
	_, err := AnalyzeAndStore(st, "scan-ref")
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() ||
		!strings.HasPrefix(err.Error(), "analysis: reference scan state: ") {
		t.Errorf("damaged reference: error %v, oracle's %v", err, wantErr)
	}
}
