package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// fmtPlanHash is the plan hash as it was first written, with fmt: the
// form every cursor on disk was stored under.
func fmtPlanHash(r *Runner, table *planTable) string {
	h := sha256.New()
	cfg, _ := json.Marshal(r.camp)
	h.Write(cfg)
	for _, pe := range entries(table) {
		fmt.Fprintf(h, "%d|%+v|%+v\n", pe.seq, pe.fault, pe.trig)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oddFirstBit is a pre-injection filter that rejects every draw whose
// first bit is odd: about half the draws, so a plan is mostly redraws.
func oddFirstBit(f faultmodel.Fault, _ trigger.Spec) bool { return f.Bits[0]%2 == 0 }

// TestPlanHashMatchesFmtForm draws a plan for every fault model crossed
// with every trigger kind — with and without a pre-injection filter that
// forces redraws, and by a runner that executes only a shard range — and
// one larger multi-bit, random-window campaign, and checks that the
// hand-formatted hash input is byte for byte the fmt form, entry by entry
// and as a whole.
func TestPlanHashMatchesFmtForm(t *testing.T) {
	models := []faultmodel.Spec{
		{Kind: faultmodel.Transient, Multiplicity: 1},
		{Kind: faultmodel.Transient, Multiplicity: 3},
		{Kind: faultmodel.StuckAt0, Multiplicity: 1},
		{Kind: faultmodel.StuckAt1, Multiplicity: 2},
		{Kind: faultmodel.Intermittent, Multiplicity: 1, ActiveProb: 0.3},
		{Kind: faultmodel.Intermittent, Multiplicity: 2, ActiveProb: 1e-7},
	}
	triggers := []trigger.Spec{
		{Kind: "cycle", Cycle: 50},
		{Kind: "instret", Count: 1234567},
		{Kind: "breakpoint", Addr: 0x40, Occurrence: 3},
		{Kind: "data-access", Addr: 0xfffffff0, Occurrence: 2, Write: true},
		{Kind: "data-access", Addr: 0x100},
		{Kind: "branch", Occurrence: 7},
		{Kind: "call", Occurrence: 1},
		{Kind: "task-switch", Addr: 0x200, Occurrence: 4},
		{Kind: "rtc", Period: 1 << 40, Occurrence: 5},
	}
	compared := 0
	for _, fm := range models {
		for _, trig := range triggers {
			for _, window := range [][2]uint64{{}, {10, math.MaxUint32}} {
				if window[1] > 0 && trig.Kind != "cycle" {
					continue
				}
				for _, opts := range [][]RunnerOption{nil, {WithInjectionFilter(oddFirstBit)}, {WithShardRange(10, 25)}} {
					camp := fakeCampaign(40)
					camp.FaultModel, camp.Trigger, camp.RandomWindow = fm, trig, window
					r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), opts...)
					if err != nil {
						t.Fatalf("%v/%v: %v", fm, trig, err)
					}
					table, _, err := r.plan()
					if err != nil {
						t.Fatalf("%v/%v: %v", fm, trig, err)
					}
					planned := entries(table)
					for i := range planned {
						want := fmt.Sprintf("%d|%+v|%+v\n", planned[i].seq, planned[i].fault, planned[i].trig)
						if got := string(appendPlanLine(nil, &planned[i])); got != want {
							t.Fatalf("plan entry formats as %q, the fmt form is %q", got, want)
						}
						compared++
					}
					if got, want := r.planHashOf(table), fmtPlanHash(r, table); got != want {
						t.Fatalf("%v/%v: plan hash %s, the fmt form hashes to %s", fm, trig, got, want)
					}
				}
			}
		}
	}
	if compared < 40*len(models)*len(triggers) {
		t.Fatalf("only %d plan entries compared", compared)
	}
	// A campaign whose hash input spans many of planHashOf's chunks: three
	// bits an experiment, a drawn cycle and an activation probability
	// that formats with all its digits.
	camp := fakeCampaign(4000)
	camp.FaultModel = faultmodel.Spec{Kind: faultmodel.Intermittent, Multiplicity: 3, ActiveProb: 0.37}
	camp.RandomWindow = [2]uint64{200, 8000}
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := r.plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range entries(table) {
		want := fmt.Sprintf("%d|%+v|%+v\n", pe.seq, pe.fault, pe.trig)
		if got := string(appendPlanLine(nil, &pe)); got != want {
			t.Fatalf("plan entry formats as %q, the fmt form is %q", got, want)
		}
	}
	if got, want := r.planHashOf(table), fmtPlanHash(r, table); got != want {
		t.Fatalf("4,000-entry plan hash %s, the fmt form hashes to %s", got, want)
	}
	// What a drawn plan never holds: no bits at all, and floats on both
	// sides of where %v switches to exponent notation.
	for _, pe := range []plannedExperiment{
		{seq: 0, fault: faultmodel.Fault{Kind: faultmodel.Transient}},
		{seq: 99999, fault: faultmodel.Fault{Kind: faultmodel.Intermittent, Bits: []int{0}, ActiveProb: 1e21}},
		{seq: 100000, fault: faultmodel.Fault{Kind: faultmodel.Intermittent, Bits: []int{63, 0, 7}, ActiveProb: 0.1 + 0.2}},
		{seq: 1 << 40, fault: faultmodel.Fault{Kind: faultmodel.Intermittent, Bits: []int{}, ActiveProb: 123456.789},
			trig: trigger.Spec{Kind: "rtc", Cycle: math.MaxUint64, Count: math.MaxUint64, Addr: math.MaxUint32,
				Occurrence: -1, Write: true, Period: math.MaxUint64}},
	} {
		want := fmt.Sprintf("%d|%+v|%+v\n", pe.seq, pe.fault, pe.trig)
		if got := string(appendPlanLine(nil, &pe)); got != want {
			t.Fatalf("plan entry formats as %q, the fmt form is %q", got, want)
		}
	}
}

// TestPlanHashGolden pins one hash literally: whatever else changes, a
// cursor stored by any earlier build for this campaign still resumes.
func TestPlanHashGolden(t *testing.T) {
	r, err := NewRunner(newFakeTarget(), SCIFI, fakeCampaign(30), fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	planned, _, err := r.plan()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "fc1afca1516fa57bb1d8a094fe082b81f14e884a0437d3a8c080ad3909703603"
	if got := r.planHashOf(planned); got != golden {
		t.Fatalf("plan hash of fakeCampaign(30) is %s, cursors on disk say %s", got, golden)
	}
}
