package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/telemetry"
	"goofi/internal/trigger"
)

// fakeDefUse is a DefUseTable over the fake 64-bit chain: access[bit]
// answers for every boundary, bits not listed are never touched again,
// and the trigger stops at boundary 9, cycle 123 — where fakeTarget says
// it does — unless the threshold lies beyond end.
type fakeDefUse struct {
	chain  string
	access map[int]Access
	end    uint64
}

func (d fakeDefUse) Chain() string { return d.chain }
func (d fakeDefUse) InjectionPoint(at uint64, _ bool) (int, uint64, bool) {
	return 9, 123, at <= d.end
}
func (d fakeDefUse) NextAccess(bit, idx int) Access {
	if idx != 9 {
		return AccessRead
	}
	return d.access[bit]
}

// fakeReadBits is how many low chain bits fakeTargetUses calls read.
const fakeReadBits = 16

// fakeTargetUses is a sound table for fakeTarget, which reads bit 0 of
// the chain (it decides the outcome) and overwrites nothing: the low
// bits are read — more of them than strictly are, as a real table may —
// and the rest never touched.
func fakeTargetUses() fakeDefUse {
	d := fakeDefUse{chain: "internal", access: map[int]Access{}, end: 10000}
	for b := 0; b < fakeReadBits; b++ {
		d.access[b] = AccessRead
	}
	return d
}

// forwardingFake is fakeTarget plus the Forwarder surface: it records no
// checkpoint, only the def-use table.
type forwardingFake struct {
	*fakeTarget
	armed *ForwardPlan
	table DefUseTable
}

func (f *forwardingFake) ArmForwardRecording(plan *ForwardPlan) { f.armed = plan }
func (f *forwardingFake) TakeForwardSet() *ForwardSet {
	plan := f.armed
	f.armed = nil
	if plan == nil {
		return nil
	}
	return &ForwardSet{Campaign: plan.Campaign, DefUse: f.table}
}
func (f *forwardingFake) SetForwardSet(*ForwardSet) {}

func refResult() *Result {
	scan := bitvec.New(64)
	scan.Set(40, true)
	return &Result{
		Outcome:   campaign.Outcome{Status: campaign.OutcomeCompleted, Cycles: 1000, Iterations: 3},
		FinalScan: scan,
		Memory:    map[string][]byte{"out": {0xAA}},
		Outputs:   map[uint16][]uint32{1: {7, 8}},
	}
}

// planOf draws camp's injection plan.
func planOf(t *testing.T, camp *campaign.Campaign) []plannedExperiment {
	t.Helper()
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	planned, _, err := r.plan()
	if err != nil {
		t.Fatal(err)
	}
	return planned
}

// prunerFor is the pruner of a run without a sink, which needs no
// reference state to hand rows over against.
func prunerFor(t *testing.T, camp *campaign.Campaign, alg Algorithm, set *ForwardSet) *pruner {
	t.Helper()
	r, err := NewRunner(newFakeTarget(), alg, camp, fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	return r.newPruner(set, nil)
}

// loggedState is res as the reference state a sink's rows go against.
func loggedState(t *testing.T, res *Result) *campaign.Reference {
	t.Helper()
	sv, err := res.StateVector()
	if err != nil {
		t.Fatal(err)
	}
	return campaign.NewReference(sv)
}

func TestPrunerClassifiesBits(t *testing.T) {
	table := fakeDefUse{chain: "internal", end: 500, access: map[int]Access{
		0: AccessRead, 1: AccessRead,
		10: AccessWrite, 11: AccessWrite,
		// 20, 21, 40: never touched again
	}}
	ref := refResult()
	p := prunerFor(t, fakeCampaign(1), SCIFI, &ForwardSet{Campaign: "fc", DefUse: table, Reference: ref})
	if p == nil {
		t.Fatal("no pruner for a prunable campaign")
	}
	p.ref = loggedState(t, ref)
	cycleAt := func(c uint64) trigger.Spec { return trigger.Spec{Kind: "cycle", Cycle: c} }
	cases := []struct {
		name    string
		fault   faultmodel.Fault
		trig    trigger.Spec
		class   PruneClass
		flipped []int // bits the synthesized scan differs from the reference in
	}{
		{"latent", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{20}}, cycleAt(50), PrunedLatent, []int{20}},
		{"latent on a set bit", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{40}}, cycleAt(50), PrunedLatent, []int{40}},
		{"overwritten", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{10}}, cycleAt(50), PrunedOverwritten, nil},
		{"two overwritten", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{10, 11}}, cycleAt(50), PrunedOverwritten, nil},
		{"latent + overwritten", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{11, 21, 20}}, cycleAt(50), PrunedLatent, []int{20, 21}},
		{"read", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{0}}, cycleAt(50), NotPruned, nil},
		{"latent + overwritten + read", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{20, 10, 1}}, cycleAt(50), NotPruned, nil},
		{"instret trigger", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{20}}, trigger.Spec{Kind: "instret", Count: 7}, PrunedLatent, []int{20}},
		{"rtc trigger", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{10}}, trigger.Spec{Kind: "rtc", Period: 25, Occurrence: 2}, PrunedOverwritten, nil},
		{"trigger never reached", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{20}}, cycleAt(501), NotPruned, nil},
		{"breakpoint trigger", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{20}}, trigger.Spec{Kind: "breakpoint", Addr: 8}, NotPruned, nil},
		{"data-access trigger", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{20}}, trigger.Spec{Kind: "data-access", Addr: 8}, NotPruned, nil},
		{"stuck-at-0", faultmodel.Fault{Kind: faultmodel.StuckAt0, Bits: []int{20}}, cycleAt(50), NotPruned, nil},
		{"stuck-at-1", faultmodel.Fault{Kind: faultmodel.StuckAt1, Bits: []int{10}}, cycleAt(50), NotPruned, nil},
		{"intermittent", faultmodel.Fault{Kind: faultmodel.Intermittent, Bits: []int{20}, ActiveProb: 0.5}, cycleAt(50), NotPruned, nil},
		{"bit outside the chain", faultmodel.Fault{Kind: faultmodel.Transient, Bits: []int{64}}, cycleAt(50), NotPruned, nil},
		{"no bits", faultmodel.Fault{Kind: faultmodel.Transient}, cycleAt(50), NotPruned, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pe := plannedExperiment{seq: 3, fault: tc.fault, trig: tc.trig}
			rec, class := p.try(&pe)
			if class != tc.class || (rec != nil) != (tc.class != NotPruned) {
				t.Fatalf("class %v (record %v), want %v", class, rec != nil, tc.class)
			}
			if rec == nil {
				return
			}
			// The record says the state; spelled out, it is the reference's
			// with those bits flipped, and the reference's outcome.
			if !rec.FromRef || rec.Ref != p.ref || rec.Name != "fc/exp00003" || rec.Campaign != "fc" || rec.Step != -1 ||
				rec.Data.Seq != 3 || !rec.Data.Injected || rec.Data.InjectionCycle != 123 ||
				rec.Data.Outcome != ref.Outcome || rec.Data.Trigger != tc.trig ||
				fmt.Sprint(rec.Data.Fault) != fmt.Sprint(tc.fault) {
				t.Errorf("record %+v", rec)
			}
			stored := make([]int, len(tc.flipped))
			for i, b := range tc.flipped {
				stored[i] = bitvec.MarshaledHeaderBits + b
			}
			if fmt.Sprint(rec.ScanDiff) != fmt.Sprint(stored) {
				t.Errorf("scan difference %v, want %v", rec.ScanDiff, stored)
			}
			whole, err := rec.WholeState()
			if err != nil {
				t.Fatal(err)
			}
			var scan bitvec.Vector
			if err := scan.UnmarshalBinary(whole.Scan); err != nil {
				t.Fatal(err)
			}
			diff, err := scan.Xor(ref.FinalScan)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(diff.OnesPositions()); got != fmt.Sprint(append([]int{}, tc.flipped...)) {
				t.Errorf("final scan differs from the reference in bits %s, want %v", got, tc.flipped)
			}
			if !ref.FinalScan.Get(40) || ref.FinalScan.PopCount() != 1 {
				t.Fatal("the shared reference scan was modified")
			}
		})
	}
	var none *pruner
	if rec, class := none.try(&plannedExperiment{fault: cases[0].fault, trig: cases[0].trig}); rec != nil || class != NotPruned {
		t.Error("a nil pruner pruned")
	}
}

// TestPrunerPreconditions lists what switches pruning off for a whole
// campaign.
func TestPrunerPreconditions(t *testing.T) {
	good := func() *ForwardSet {
		return &ForwardSet{Campaign: "fc", DefUse: fakeTargetUses(), Reference: refResult()}
	}
	if prunerFor(t, fakeCampaign(1), SCIFI, good()) == nil {
		t.Fatal("the baseline configuration does not prune")
	}
	detail := fakeCampaign(1)
	detail.LogMode = campaign.LogDetail
	for name, p := range map[string]*pruner{
		"no set":            prunerFor(t, fakeCampaign(1), SCIFI, nil),
		"no table":          prunerFor(t, fakeCampaign(1), SCIFI, &ForwardSet{Campaign: "fc", Reference: refResult()}),
		"no reference":      prunerFor(t, fakeCampaign(1), SCIFI, &ForwardSet{Campaign: "fc", DefUse: fakeTargetUses()}),
		"no final scan":     prunerFor(t, fakeCampaign(1), SCIFI, &ForwardSet{Campaign: "fc", DefUse: fakeTargetUses(), Reference: &Result{}}),
		"foreign campaign":  prunerFor(t, fakeCampaign(1), SCIFI, &ForwardSet{Campaign: "other", DefUse: fakeTargetUses(), Reference: refResult()}),
		"detail mode":       prunerFor(t, detail, SCIFI, good()),
		"pin-level":         prunerFor(t, fakeCampaign(1), PinLevel, good()),
		"runtime SWIFI":     prunerFor(t, fakeCampaign(1), RuntimeSWIFI, good()),
		"table other chain": prunerFor(t, fakeCampaign(1), SCIFI, &ForwardSet{Campaign: "fc", DefUse: fakeDefUse{chain: "boundary"}, Reference: refResult()}),
	} {
		if p != nil {
			t.Errorf("%s: pruning stayed on", name)
		}
	}
	// With a sink the rows are handed over as differences from the logged
	// reference state, which has to be there and be the set's.
	logging, err := NewRunner(newFakeTarget(), SCIFI, fakeCampaign(1), fakeTSD(), WithSink(plainSink{}))
	if err != nil {
		t.Fatal(err)
	}
	if logging.newPruner(good(), loggedState(t, refResult())) == nil {
		t.Error("a run with a sink and the set's reference state logged does not prune")
	}
	other := refResult()
	other.FinalScan.Flip(41)
	for name, ref := range map[string]*campaign.Reference{
		"no logged reference state":      nil,
		"another reference state logged": loggedState(t, other),
	} {
		if logging.newPruner(good(), ref) != nil {
			t.Errorf("%s: pruning stayed on", name)
		}
	}
}

// TestPrunedDispatch runs a campaign whose target hands back a def-use
// table: provable no-ops are logged without a board, land in the same
// rows an unpruned run stores, and show up in the summary, the span
// stream, the metrics and the progress count.
func TestPrunedDispatch(t *testing.T) {
	const n = 60
	run := func(boards int, opts ...RunnerOption) (*Summary, []string) {
		camp := fakeCampaign(n)
		st := storeWithCampaign(t, camp)
		factory := func() TargetSystem { return &forwardingFake{fakeTarget: newFakeTarget(), table: fakeTargetUses()} }
		r, err := NewRunner(factory(), SCIFI, camp, fakeTSD(),
			append(opts, WithSink(st), WithBoards(boards, factory), WithCheckpoints(8))...)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.Experiments("fc")
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(recs))
		for i, rec := range recs {
			rows[i] = string(recordBytes(t, rec))
		}
		if cp, err := st.GetCheckpoint("fc"); err != nil || cp == nil {
			t.Fatalf("final cursor %+v, %v", cp, err)
		}
		if got := recovered(t, st, "fc"); fmt.Sprint(got) != fmt.Sprint(prefix(n)) {
			t.Fatalf("recovered %v complete, want all %d", got, n)
		}
		return sum, rows
	}
	oracleSum, oracleRows := run(1, WithForwarding(ForwardConfig{Disabled: true}))
	if oracleSum.Pruned.Total() != 0 {
		t.Fatalf("forwarding off pruned %d", oracleSum.Pruned.Total())
	}
	latent0, overwritten0 := mPrunedLatent.Value(), mPrunedOverwritten.Value()
	dispatched0, completed0 := mDispatched.Value(), mCompleted.Value()

	tr := telemetry.NewTracer()
	prog := telemetry.NewProgress(1)
	sum, rows := run(1, WithTelemetry(tr, prog))

	if len(rows) != len(oracleRows) {
		t.Fatalf("%d rows, oracle %d", len(rows), len(oracleRows))
	}
	for i := range rows {
		if rows[i] != oracleRows[i] {
			t.Errorf("row %d differs\noracle %s\npruned %s", i, oracleRows[i], rows[i])
		}
	}
	// Every fault outside the bits the table calls read is latent.
	wantPruned := 0
	for _, pe := range planOf(t, fakeCampaign(n)) {
		if pe.fault.Bits[0] >= fakeReadBits {
			wantPruned++
		}
	}
	if sum.Pruned.Latent != wantPruned || sum.Pruned.Overwritten != 0 || wantPruned == 0 || wantPruned == n {
		t.Fatalf("pruned %+v, want %d latent of %d", sum.Pruned, wantPruned, n)
	}
	if sum.Experiments != n || sum.Injected != n || sum.InvalidRuns != 0 ||
		fmt.Sprint(sum.ByStatus) != fmt.Sprint(oracleSum.ByStatus) {
		t.Errorf("summary %+v, oracle %+v", sum, oracleSum)
	}
	// Cycles: the reference plus the emulated experiments only.
	if want := oracleSum.CyclesEmulated - uint64(wantPruned)*1000; sum.CyclesEmulated != want {
		t.Errorf("cycles emulated %d, want %d", sum.CyclesEmulated, want)
	}
	if got := mPrunedLatent.Value() - latent0; got != uint64(wantPruned) {
		t.Errorf("goofi_experiments_pruned_total{latent} moved by %d", got)
	}
	if got := mPrunedOverwritten.Value() - overwritten0; got != 0 {
		t.Errorf("goofi_experiments_pruned_total{overwritten} moved by %d", got)
	}
	if got := mDispatched.Value() - dispatched0; got != uint64(n-wantPruned) {
		t.Errorf("dispatched to boards: %d, want %d", got, n-wantPruned)
	}
	if got := mCompleted.Value() - completed0; got != n {
		t.Errorf("completed: %d, want %d", got, n)
	}
	phases := map[string]int{}
	for _, sp := range tr.Drain() {
		phases[sp.Phase]++
		if sp.Phase == "pruned" && (sp.Board != -1 || sp.StartCycle != 0 || sp.EndCycle != 0) {
			t.Errorf("pruned span %+v claims a board or cycles", sp)
		}
	}
	if phases["pruned"] != wantPruned || phases["experiment"] != n-wantPruned || phases["reference"] != 1 {
		t.Errorf("spans by phase: %v", phases)
	}
	if snap := prog.Snapshot(); snap.Done != n || snap.Total != n {
		t.Errorf("progress %d/%d", snap.Done, snap.Total)
	}

	// Three boards: same rows, same split.
	sum3, rows3 := run(3)
	if sum3.Pruned != sum.Pruned {
		t.Errorf("3 boards pruned %+v, 1 board %+v", sum3.Pruned, sum.Pruned)
	}
	for i := range rows3 {
		if rows3[i] != oracleRows[i] {
			t.Errorf("3 boards: row %d differs", i)
		}
	}
}

// headDefUse calls every bit read for the first emulated classifications
// and never touched again after them, so the plan's first items run on
// boards and all the rest are pruned. The classifier asks InjectionPoint
// once per item, in plan order, on one goroutine. (Not a sound table: only
// scheduling is looked at, never rows.)
type headDefUse struct {
	fakeDefUse
	emulated int
	asked    *int
}

func (d headDefUse) InjectionPoint(uint64, bool) (int, uint64, bool) {
	*d.asked++
	if *d.asked <= d.emulated {
		return 9, 123, true
	}
	return 10, 123, true
}

func (d headDefUse) NextAccess(_, idx int) Access {
	if idx == 9 {
		return AccessRead
	}
	return AccessNone
}

// gatedFake holds its board's first experiment at InitTestCard until the
// gate opens, reporting on started that it got there, and notes in onBoard
// every experiment that reaches a board.
type gatedFake struct {
	*forwardingFake
	once    sync.Once
	started chan<- struct{}
	gate    <-chan struct{}
	onBoard *sync.Map
}

func (g *gatedFake) InitTestCard(ex *Experiment) error {
	g.onBoard.Store(ex.Name, true)
	if !ex.IsReference() {
		g.once.Do(func() {
			g.started <- struct{}{}
			<-g.gate
		})
	}
	return g.forwardingFake.InitTestCard(ex)
}

// heldSink holds back every row of an experiment that never reached a
// board — a pruned one — until served is closed, and gives up, for all of
// them, when one has waited two seconds.
type heldSink struct {
	ResultSink
	onBoard *sync.Map
	served  <-chan struct{}
	gaveUp  chan struct{}
	once    sync.Once
}

func (s *heldSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	if _, ok := s.onBoard.Load(rec.Name); !ok {
		select {
		case <-s.served:
		case <-s.gaveUp:
		case <-time.After(2 * time.Second):
			s.once.Do(func() { close(s.gaveUp) })
		}
	}
	return s.ResultSink.LogExperiment(rec)
}

// TestPrunedStreakYieldsBoard: while only pruned slots remain, a campaign
// holds no lease. Its two workers hold both boards of a shared fleet, each
// stopped in one of the plan's two emulated experiments, and another
// campaign waits for a board; once those two are done, the campaign hands
// its pruned rows over — with the classifier still a window short of the
// plan's end — holding neither board.
func TestPrunedStreakYieldsBoard(t *testing.T) {
	const n = 2*campaign.QueueRows + 10
	fleet, err := NewFleet(2)
	if err != nil {
		t.Fatal(err)
	}
	other := fleet.Register("other")
	defer other.Close()
	leased := func() int64 {
		fleet.mu.Lock()
		defer fleet.mu.Unlock()
		return fleet.leasedLocked()
	}

	var onBoard sync.Map
	started, gate, served := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
	table := headDefUse{fakeDefUse: fakeDefUse{chain: "internal"}, emulated: 2, asked: new(int)}
	factory := func() TargetSystem {
		return &gatedFake{started: started, gate: gate, onBoard: &onBoard, forwardingFake: &forwardingFake{
			fakeTarget: newFakeTarget(), table: table}}
	}
	camp := fakeCampaign(n)
	sink := &heldSink{ResultSink: storeWithCampaign(t, camp), onBoard: &onBoard,
		served: served, gaveUp: make(chan struct{})}
	r, err := NewRunner(factory(), SCIFI, camp, fakeTSD(), WithSink(sink), WithBoards(2, factory), WithFleet(fleet))
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		// Both workers hold a board, each stopped in its emulated experiment.
		<-started
		<-started
		waits := mFleetWaits.Value()
		go func() {
			lease, err := other.Acquire(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			defer lease.Release()
			// The sink holds the first pruned row until served: only pruned
			// rows remain, and the other campaign's lease is the only one.
			deadline := time.Now().Add(5 * time.Second)
			for leased() != 1 {
				if time.Now().After(deadline) {
					t.Errorf("%d boards leased while only pruned rows remain, want the other campaign's one", leased())
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			close(served)
		}()
		for mFleetWaits.Value() == waits {
			time.Sleep(100 * time.Microsecond) // until the other campaign waits
		}
		close(gate)
	}()
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pruned.Total() != n-2 {
		t.Fatalf("pruned %d of %d, want all but the two gated ones", sum.Pruned.Total(), n)
	}
	select {
	case <-sink.gaveUp:
		t.Error("the campaign sat on its boards through its pruned rows")
	default:
	}
}

// TestPrunedMetricsExportZeros: both children of the pruned counter
// exist before anything is pruned.
func TestPrunedMetricsExportZeros(t *testing.T) {
	snap := telemetry.Default.Snapshot()
	for _, class := range []string{"latent", "overwritten"} {
		if _, ok := snap[`goofi_experiments_pruned_total{class="`+class+`"}`]; !ok {
			t.Errorf("no %s child in the exposition: %v", class, snap)
		}
	}
}
