package campaign

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"goofi/internal/faultmodel"
	"goofi/internal/scanchain"
	"goofi/internal/sqldb"
	"goofi/internal/trigger"
)

func testTarget() *TargetSystemData {
	return &TargetSystemData{
		Name:         "thor-board",
		TestCardName: "card-1",
		Chains: []scanchain.Map{
			{
				Chain:  "internal",
				Length: 100,
				Locations: []scanchain.Location{
					{Name: "cpu.r0", Offset: 0, Width: 32},
					{Name: "cpu.r1", Offset: 32, Width: 32},
					{Name: "cpu.pc", Offset: 64, Width: 32},
					{Name: "cpu.cycle", Offset: 96, Width: 4, ReadOnly: true},
				},
			},
		},
	}
}

func testCampaign() *Campaign {
	return &Campaign{
		Name:           "camp-1",
		TargetName:     "thor-board",
		ChainName:      "internal",
		Locations:      []string{"cpu"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.Transient},
		Trigger:        trigger.Spec{Kind: "cycle", Cycle: 100},
		NumExperiments: 10,
		Seed:           42,
		Termination:    Termination{TimeoutCycles: 100000},
		Workload:       WorkloadSpec{Name: "w", Source: "halt"},
		LogMode:        LogNormal,
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTargetSystemValidate(t *testing.T) {
	if err := testTarget().Validate(); err != nil {
		t.Errorf("valid target rejected: %v", err)
	}
	bad := testTarget()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("unnamed target accepted")
	}
	bad = testTarget()
	bad.Chains = nil
	if err := bad.Validate(); err == nil {
		t.Error("chainless target accepted")
	}
	bad = testTarget()
	bad.Chains = append(bad.Chains, bad.Chains[0])
	if err := bad.Validate(); err == nil {
		t.Error("duplicate chain accepted")
	}
	bad = testTarget()
	bad.Chains[0].Locations[0].Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid chain map accepted")
	}
}

func TestCampaignValidate(t *testing.T) {
	if err := testCampaign().Validate(); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
	mutations := []struct {
		name string
		fn   func(*Campaign)
	}{
		{"no name", func(c *Campaign) { c.Name = "" }},
		{"no target", func(c *Campaign) { c.TargetName = "" }},
		{"no locations", func(c *Campaign) { c.Locations = nil }},
		{"bad fault model", func(c *Campaign) { c.FaultModel.Kind = "x" }},
		{"zero experiments", func(c *Campaign) { c.NumExperiments = 0 }},
		{"no timeout", func(c *Campaign) { c.Termination.TimeoutCycles = 0 }},
		{"no workload", func(c *Campaign) { c.Workload.Source = "" }},
		{"bad trigger", func(c *Campaign) { c.Trigger.Kind = "x" }},
		{"no log mode", func(c *Campaign) { c.LogMode = "" }},
		{"bad log mode", func(c *Campaign) { c.LogMode = "loud" }},
		{"window without cycle trigger", func(c *Campaign) {
			c.RandomWindow = [2]uint64{1, 100}
			c.Trigger.Kind = "branch"
		}},
		{"empty window", func(c *Campaign) {
			c.RandomWindow = [2]uint64{100, 100}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := testCampaign()
			m.fn(c)
			if err := c.Validate(); err == nil {
				t.Errorf("campaign with %s accepted", m.name)
			}
		})
	}
}

func TestStoreTargetRoundTrip(t *testing.T) {
	s := newStore(t)
	ts := testTarget()
	if err := s.PutTargetSystem(ts); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetTargetSystem("thor-board")
	if err != nil {
		t.Fatal(err)
	}
	if got.TestCardName != "card-1" || len(got.Chains) != 1 || got.Chains[0].Length != 100 {
		t.Errorf("loaded target = %+v", got)
	}
	// Upsert.
	ts.TestCardName = "card-2"
	if err := s.PutTargetSystem(ts); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetTargetSystem("thor-board")
	if err != nil {
		t.Fatal(err)
	}
	if got.TestCardName != "card-2" {
		t.Errorf("upsert lost: %q", got.TestCardName)
	}
	names, err := s.ListTargetSystems()
	if err != nil || len(names) != 1 || names[0] != "thor-board" {
		t.Errorf("ListTargetSystems = %v, %v", names, err)
	}
	if _, err := s.GetTargetSystem("ghost"); err == nil {
		t.Error("missing target did not error")
	}
}

func TestStoreCampaignRequiresTarget(t *testing.T) {
	s := newStore(t)
	// Foreign key: campaign without its target system must be rejected.
	if err := s.PutCampaign(testCampaign()); err == nil {
		t.Fatal("campaign without target accepted")
	}
	if err := s.PutTargetSystem(testTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(testCampaign()); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetCampaign("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumExperiments != 10 || got.Workload.Source != "halt" {
		t.Errorf("loaded campaign = %+v", got)
	}
	names, err := s.ListCampaigns()
	if err != nil || len(names) != 1 {
		t.Errorf("ListCampaigns = %v, %v", names, err)
	}
}

func TestStoreMergeCampaigns(t *testing.T) {
	s := newStore(t)
	if err := s.PutTargetSystem(testTarget()); err != nil {
		t.Fatal(err)
	}
	c1 := testCampaign()
	c1.Name = "a"
	c1.Locations = []string{"cpu.r0"}
	c1.NumExperiments = 10
	c2 := testCampaign()
	c2.Name = "b"
	c2.Locations = []string{"cpu.r1", "cpu.r0"}
	c2.NumExperiments = 5
	for _, c := range []*Campaign{c1, c2} {
		if err := s.PutCampaign(c); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := s.MergeCampaigns("ab", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumExperiments != 15 {
		t.Errorf("merged experiments = %d, want 15", merged.NumExperiments)
	}
	if len(merged.Locations) != 2 {
		t.Errorf("merged locations = %v", merged.Locations)
	}
	if _, err := s.GetCampaign("ab"); err != nil {
		t.Errorf("merged campaign not stored: %v", err)
	}
	// Mismatched targets refuse to merge.
	other := testTarget()
	other.Name = "other-board"
	if err := s.PutTargetSystem(other); err != nil {
		t.Fatal(err)
	}
	c3 := testCampaign()
	c3.Name = "c"
	c3.TargetName = "other-board"
	if err := s.PutCampaign(c3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MergeCampaigns("bad", "a", "c"); err == nil {
		t.Error("cross-target merge accepted")
	}
	if _, err := s.MergeCampaigns("solo", "a"); err == nil {
		t.Error("single-source merge accepted")
	}
}

func TestLogAndQueryExperiments(t *testing.T) {
	s := newStore(t)
	if err := s.PutTargetSystem(testTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(testCampaign()); err != nil {
		t.Fatal(err)
	}
	// Foreign key: an experiment of an unknown campaign is rejected.
	err := s.LogExperiment(&ExperimentRecord{
		Name: "x", Campaign: "ghost", Step: -1,
		Data: ExperimentData{Seq: 0},
	})
	if err == nil {
		t.Fatal("experiment for unknown campaign accepted")
	}
	for i := 0; i < 3; i++ {
		rec := &ExperimentRecord{
			Name:     ExperimentName("camp-1", i),
			Campaign: "camp-1",
			Step:     -1,
			Data: ExperimentData{
				Seq:     i,
				Outcome: Outcome{Status: OutcomeCompleted, Cycles: uint64(100 + i)},
			},
			State: StateVector{Memory: map[string][]byte{"out": {1, 2, 3, 4}}},
		}
		if err := s.LogExperiment(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("experiments = %d, want 3", len(recs))
	}
	if recs[1].Data.Outcome.Cycles != 101 {
		t.Errorf("record 1 = %+v", recs[1].Data)
	}
	if string(recs[0].State.Memory["out"]) != "\x01\x02\x03\x04" {
		t.Errorf("state memory = %v", recs[0].State.Memory)
	}
	// Duplicate experiment names are rejected (primary key).
	err = s.LogExperiment(&ExperimentRecord{
		Name: ExperimentName("camp-1", 0), Campaign: "camp-1", Step: -1,
	})
	if err == nil {
		t.Error("duplicate experiment name accepted")
	}
	if err := s.DeleteExperiments("camp-1"); err != nil {
		t.Fatal(err)
	}
	recs, err = s.Experiments("camp-1")
	if err != nil || len(recs) != 0 {
		t.Errorf("after delete: %d records, err %v", len(recs), err)
	}
}

func TestParentExperimentRerunTracking(t *testing.T) {
	// The paper §2.3 scenario: experiment E1 shows a fail-silence
	// violation; E2 re-runs it with the same campaign data in detail
	// mode, recording E1 as parentExperiment so E1's campaign data can
	// be tracked through the foreign keys.
	s := newStore(t)
	if err := s.PutTargetSystem(testTarget()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCampaign(testCampaign()); err != nil {
		t.Fatal(err)
	}
	e1 := &ExperimentRecord{
		Name: "camp-1/exp00001", Campaign: "camp-1", Step: -1,
		Data: ExperimentData{Seq: 1, Outcome: Outcome{Status: OutcomeCompleted}},
	}
	if err := s.LogExperiment(e1); err != nil {
		t.Fatal(err)
	}
	e2 := &ExperimentRecord{
		Name: "camp-1/exp00001/rerun1", Parent: "camp-1/exp00001",
		Campaign: "camp-1", Step: -1,
		Data: ExperimentData{Seq: 1, Outcome: Outcome{Status: OutcomeCompleted}},
	}
	if err := s.LogExperiment(e2); err != nil {
		t.Fatal(err)
	}
	// Detail-mode trace rows of the re-run.
	for i := 0; i < 5; i++ {
		rec := &ExperimentRecord{
			Name:     ExperimentName("camp-1", 1) + "/rerun1/step" + string(rune('0'+i)),
			Parent:   "camp-1/exp00001/rerun1",
			Campaign: "camp-1",
			Step:     i,
		}
		if err := s.LogExperiment(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.GetExperiment("camp-1/exp00001/rerun1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Parent != "camp-1/exp00001" {
		t.Errorf("parent = %q", got.Parent)
	}
	trace, err := s.Trace("camp-1/exp00001/rerun1")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 5 {
		t.Errorf("trace steps = %d, want 5", len(trace))
	}
	for i, r := range trace {
		if r.Step != i {
			t.Errorf("trace[%d].Step = %d", i, r.Step)
		}
	}
	// End-of-experiment listing excludes the trace rows.
	recs, err := s.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("end-of-experiment records = %d, want 2", len(recs))
	}
}

func TestStateVectorRoundTrip(t *testing.T) {
	sv := &StateVector{
		Scan:    []byte{1, 2, 3},
		Memory:  map[string][]byte{"a": {9}},
		Outputs: map[uint16][]uint32{1: {7, 8}},
	}
	b, err := sv.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStateVector(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Scan) != "\x01\x02\x03" || got.Outputs[1][1] != 8 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeStateVector([]byte("junk")); err == nil {
		t.Error("garbage state vector accepted")
	}
}

func TestSchemaDDLNames(t *testing.T) {
	// The schema follows paper Fig 4's table and attribute names.
	joined := strings.Join(Schema, "\n")
	for _, want := range []string{
		"TargetSystemData", "CampaignData", "LoggedSystemState",
		"experimentName", "parentExperiment", "campaignName",
		"experimentData", "stateVector", "testCardName",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("schema missing %q", want)
		}
	}
}

func TestExperimentNames(t *testing.T) {
	// The padding is five digits and gives way to longer numbers: names are
	// primary keys in every store written so far.
	for i, want := range map[int]string{0: "c/exp00000", 7: "c/exp00007", 99999: "c/exp99999", 100000: "c/exp100000"} {
		if got := ExperimentName("c", i); got != want {
			t.Errorf("ExperimentName(c, %d) = %q, want %q", i, got, want)
		}
	}
	long := strings.Repeat("campaign-", 12)
	for _, i := range []int{-12345, -1, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 12345, 1234567, math.MaxInt32} {
		for _, name := range []string{"", "c", long} {
			if got, want := ExperimentName(name, i), fmt.Sprintf("%s/exp%05d", name, i); got != want {
				t.Errorf("ExperimentName(%q, %d) = %q, fmt makes it %q", name, i, got, want)
			}
		}
	}
	if got := ReferenceName("c"); got != "c/reference" {
		t.Errorf("ReferenceName = %q", got)
	}
}
