package pinlevel

import (
	"context"
	"encoding/json"
	"testing"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/faultmodel"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
	"goofi/internal/trigger"
	"goofi/internal/workload"
)

func pinCampaign(name string, n int, seed int64) *campaign.Campaign {
	return &campaign.Campaign{
		Name:           name,
		TargetName:     "thor-pins",
		ChainName:      "boundary",
		Locations:      []string{"pin.data_in"},
		FaultModel:     faultmodel.Spec{Kind: faultmodel.StuckAt1},
		Trigger:        trigger.Spec{Kind: "cycle"},
		RandomWindow:   [2]uint64{10, 1600},
		NumExperiments: n,
		Seed:           seed,
		Termination:    campaign.Termination{TimeoutCycles: 100_000},
		Workload:       workload.Sort(),
		LogMode:        campaign.LogNormal,
	}
}

// runPins runs camp on tgt over a fresh in-memory store.
func runPins(t *testing.T, tgt core.TargetSystem, camp *campaign.Campaign) (*core.Summary, *campaign.Store) {
	t.Helper()
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	tsd := TargetSystemData(camp.TargetName)
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(camp); err != nil {
		t.Fatal(err)
	}
	r, err := core.NewRunner(tgt, core.PinLevel, camp, tsd, core.WithSink(st))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum, st
}

func TestPinLevelCampaign(t *testing.T) {
	sum, st := runPins(t, New(thor.DefaultConfig()), pinCampaign("pins", 25, 3))
	// A few draws may land past the workload's end and are correctly
	// recorded as not injected; most must inject.
	if sum.Experiments != 25 || sum.Injected < 20 {
		t.Fatalf("summary = %+v", sum)
	}
	total := 0
	for _, n := range sum.ByStatus {
		total += n
	}
	if total != 25 {
		t.Errorf("status total = %d", total)
	}
	// Forcing data-in pins during a memory-heavy sort must corrupt at
	// least some runs (detected or wrong results are both possible; we
	// assert that not every run completed identically by checking at
	// least one non-completed OR differing checksum).
	recs, err := st.Experiments("pins")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := st.GetExperiment(campaign.ReferenceName("pins"))
	if err != nil {
		t.Fatal(err)
	}
	affected := 0
	for _, rec := range recs {
		if rec.IsReference() {
			continue
		}
		if rec.Data.Outcome.Status != campaign.OutcomeCompleted {
			affected++
			continue
		}
		if string(rec.State.Memory["checksum"]) != string(ref.State.Memory["checksum"]) {
			affected++
		}
	}
	if affected == 0 {
		t.Error("no pin-level fault affected the workload at all")
	}
}

func TestTargetSystemDataWritablePins(t *testing.T) {
	tsd := TargetSystemData("x")
	m := tsd.Chains[0]
	for _, l := range m.Locations {
		writable := l.Name == "pin.data_in" || l.Name == "pin.addr"
		if writable == l.ReadOnly {
			t.Errorf("pin %s read-only = %v", l.Name, l.ReadOnly)
		}
	}
}

func TestNonForceablePinRejected(t *testing.T) {
	tgt := New(thor.DefaultConfig())
	camp := pinCampaign("bad", 1, 1)
	m := scifi.BoundaryMap()
	halt, err := m.Find("pin.halt")
	if err != nil {
		t.Fatal(err)
	}
	ex := &core.Experiment{
		Campaign: camp, Seq: 0, Name: "bad/exp00000",
		Fault:    &faultmodel.Fault{Kind: faultmodel.StuckAt1, Bits: []int{halt.Offset}},
		Injected: true,
	}
	if err := tgt.InitTestCard(ex); err != nil {
		t.Fatal(err)
	}
	if err := tgt.ReadScanChain(ex); err != nil {
		t.Fatal(err)
	}
	if err := tgt.WriteScanChain(ex); err == nil {
		t.Error("forcing a read-only pin accepted")
	}
}

// terminationSpy is a pin-level target that watches its own
// waitForTermination: it counts the DR scans made while it runs, and can
// run it with the fault's kind swapped for a transient one — the kind no
// board ever reasserts — so a run with reassertion off is the oracle for
// one with it on.
type terminationSpy struct {
	*Target
	reassertOff bool
	scans       int
}

func (s *terminationSpy) WaitForTermination(ex *core.Experiment) error {
	if s.reassertOff && ex.Fault != nil {
		logged := ex.Fault
		quiet := *logged
		quiet.Kind = faultmodel.Transient
		ex.Fault = &quiet
		defer func() { ex.Fault = logged }()
	}
	s.Controller().SetScanFaultHook(func(*bitvec.Vector) error { s.scans++; return nil })
	defer s.Controller().SetScanFaultHook(nil)
	return s.Target.WaitForTermination(ex)
}

// TestPersistentPinFaultNeverTouchesInternalChain: a stuck-at fault on the
// data-in pins is forced, held and released like any pin fault. The board's
// termination loop used to reassert it every 4,096-cycle slice and every
// exchange through the internal chain, where boundary bit 32 is a bit of
// cpu.r1: over this campaign, 1,259 reassertions, 954 of which set a bit of
// a register the fault never named.
func TestPersistentPinFaultNeverTouchesInternalChain(t *testing.T) {
	rows := func(spy *terminationSpy) []string {
		camp := pinCampaign("pins-pid", 25, 3)
		camp.Workload = workload.PID()
		camp.EnvSim = &campaign.EnvSimSpec{Name: "first-order-plant"}
		camp.RandomWindow = [2]uint64{200, 3000}
		camp.Termination = campaign.Termination{TimeoutCycles: 400_000, MaxIterations: 80}
		sum, st := runPins(t, spy, camp)
		if sum.Injected < 20 {
			t.Fatalf("only %d of 25 experiments injected", sum.Injected)
		}
		recs, err := st.Experiments(camp.Name)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	on := &terminationSpy{Target: New(thor.DefaultConfig())}
	got := rows(on)
	if on.scans != 0 {
		t.Errorf("%d scans during waitForTermination, want none: a pin fault is not reasserted", on.scans)
	}
	want := rows(&terminationSpy{Target: New(thor.DefaultConfig()), reassertOff: true})
	if len(got) != len(want) {
		t.Fatalf("%d rows, %d with reassertion off", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d differs from the run with reassertion off\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
