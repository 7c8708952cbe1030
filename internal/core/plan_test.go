package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/scanchain"
	"goofi/internal/sqldb"
	"goofi/internal/trigger"
)

// drawnOneByOne is the plan as it was first drawn: one Sample, one trigger
// and one filter call a draw, each entry a struct of its own with bits of
// its own. The oracle the table is checked against.
func drawnOneByOne(t *testing.T, r *Runner) ([]plannedExperiment, int) {
	t.Helper()
	sp, _, err := r.space()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(r.camp.Seed))
	var out []plannedExperiment
	skipped := 0
	for i := 0; i < r.camp.NumExperiments; i++ {
		for {
			fault, err := sp.Sample(&r.camp.FaultModel, rng)
			if err != nil {
				t.Fatal(err)
			}
			trig := r.camp.Trigger
			if w := r.camp.RandomWindow; w[1] > 0 {
				trig.Cycle = w[0] + uint64(rng.Int63n(int64(w[1]-w[0])))
			}
			if r.filter == nil || r.filter(fault, trig) {
				out = append(out, plannedExperiment{seq: i, fault: fault, trig: trig})
				break
			}
			skipped++
		}
	}
	return out, skipped
}

// TestPlanTableMatchesDraws: every entry the table builds is the one the
// draw-by-draw plan holds — fault, trigger, sequence number, and the number
// of draws the filter rejected — over fault models, fixed and random
// triggers, filters that force redraws and shard ranges; and every entry's
// Bits is capped at its length, so an append cannot run into the next
// experiment's bits.
func TestPlanTableMatchesDraws(t *testing.T) {
	models := []faultmodel.Spec{
		{Kind: faultmodel.Transient},
		{Kind: faultmodel.Transient, Multiplicity: 3},
		{Kind: faultmodel.StuckAt1, Multiplicity: 2},
		{Kind: faultmodel.Intermittent, Multiplicity: 2, ActiveProb: 0.25},
		{Kind: faultmodel.Transient, Multiplicity: 48}, // every bit of the space
	}
	filters := map[string]func(faultmodel.Fault, trigger.Spec) bool{
		"none":          nil,
		"odd first bit": oddFirstBit,
		"late cycles":   func(_ faultmodel.Fault, trig trigger.Spec) bool { return trig.Cycle < 400 },
	}
	for _, fm := range models {
		for _, window := range [][2]uint64{{}, {10, 1600}} {
			for name, filter := range filters {
				for _, shard := range [][2]int{{}, {7, 31}} {
					camp := fakeCampaign(60)
					camp.FaultModel, camp.RandomWindow = fm, window
					r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
						WithInjectionFilter(filter), WithShardRange(shard[0], shard[1]))
					if err != nil {
						t.Fatal(err)
					}
					table, skipped, err := r.plan()
					if err != nil {
						t.Fatal(err)
					}
					want, wantSkipped := drawnOneByOne(t, r)
					label := fmt.Sprintf("%+v, window %v, filter %s, shard %v", fm, window, name, shard)
					if skipped != wantSkipped || table.n != len(want) {
						t.Fatalf("%s: %d entries and %d redraws, drawn one by one %d and %d",
							label, table.n, skipped, len(want), wantSkipped)
					}
					if filter != nil && skipped == 0 && (window[1] > 0 || name != "late cycles") {
						t.Fatalf("%s: the filter forced no redraw", label)
					}
					for seq, pe := range entries(table) {
						if got := fmt.Sprintf("%d %+v %+v", pe.seq, pe.fault, pe.trig); got != fmt.Sprintf("%d %+v %+v", want[seq].seq, want[seq].fault, want[seq].trig) {
							t.Fatalf("%s: entry %d is %s, drawn one by one %+v", label, seq, got, want[seq])
						}
						if cap(pe.fault.Bits) != len(pe.fault.Bits) {
							t.Fatalf("%s: entry %d's bits have length %d and capacity %d", label, seq,
								len(pe.fault.Bits), cap(pe.fault.Bits))
						}
					}
				}
			}
		}
	}
}

// tableOf is a plan table holding entries, which share a fault kind, its
// probability, a multiplicity and all of a trigger but its cycle.
func tableOf(entries []plannedExperiment, random bool) *planTable {
	first := entries[0]
	t := &planTable{n: len(entries), m: len(first.fault.Bits), kind: first.fault.Kind,
		prob: first.fault.ActiveProb, trig: first.trig}
	for _, pe := range entries {
		t.bits = append(t.bits, pe.fault.Bits...)
		if random {
			t.cycles = append(t.cycles, pe.trig.Cycle)
		}
	}
	return t
}

// viewSink keeps what every end row of an experiment says its fault and
// trigger were: the row's Bits is a view into the run's plan table, not a
// copy. It counts the views whose capacity exceeds their length.
type viewSink struct {
	CheckpointSink
	mu       sync.Mutex
	views    map[int]plannedExperiment
	uncapped int
}

func (s *viewSink) LogExperiment(rec *campaign.ExperimentRecord) error {
	if rec.Step == -1 && rec.Data.Seq >= 0 {
		s.mu.Lock()
		s.views[rec.Data.Seq] = plannedExperiment{seq: rec.Data.Seq, fault: rec.Data.Fault, trig: rec.Data.Trigger}
		if cap(rec.Data.Fault.Bits) != len(rec.Data.Fault.Bits) {
			s.uncapped++
		}
		s.mu.Unlock()
	}
	return s.CheckpointSink.LogExperiment(rec)
}

// appendingFake is a board that appends to the fault's bits it is handed —
// what no consumer may do to the plan's array — and counts the faults whose
// bits were not capped at their length.
type appendingFake struct {
	*forwardingFake
	uncapped *int
	mu       *sync.Mutex
}

func (a *appendingFake) InitTestCard(ex *Experiment) error {
	if ex.Fault != nil {
		if cap(ex.Fault.Bits) != len(ex.Fault.Bits) {
			a.mu.Lock()
			*a.uncapped++
			a.mu.Unlock()
		}
		_ = append(ex.Fault.Bits, -1)
	}
	return a.forwardingFake.InitTestCard(ex)
}

// TestPlanTableSurvivesRun: a full run — pruned and emulated experiments on
// three boards, rows through a batching sink into a store — leaves the plan
// as it was drawn. The rows' faults are views into the plan table, so the
// plan hash of what they hold once the run is over, and the sink drained,
// is the hash taken before dispatch only if no board, pruner, encoder or
// store wrote through one; and every view handed to a board or a row is
// capped at its length.
func TestPlanTableSurvivesRun(t *testing.T) {
	const n = 300
	camp := fakeCampaign(n)
	camp.FaultModel = faultmodel.Spec{Kind: faultmodel.Transient, Multiplicity: 2}
	camp.RandomWindow = [2]uint64{10, 1600}
	st := storeWithCampaign(t, camp)
	bs := campaign.NewBatchingSink(st, 0)
	defer bs.Close()
	sink := &viewSink{CheckpointSink: bs, views: map[int]plannedExperiment{}}
	var mu sync.Mutex
	uncapped := 0
	factory := func() TargetSystem {
		return &appendingFake{forwardingFake: &forwardingFake{fakeTarget: newFakeTarget(), table: fakeTargetUses()},
			uncapped: &uncapped, mu: &mu}
	}
	r, err := NewRunner(factory(), SCIFI, camp, fakeTSD(), WithSink(sink), WithBoards(3, factory),
		WithCheckpoints(0), WithInjectionFilter(oddFirstBit))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Flush(); err != nil {
		t.Fatal(err)
	}
	if sum.Pruned.Total() == 0 || sum.Pruned.Total() == n || sum.Skipped == 0 {
		t.Fatalf("pruned %d of %d after %d redraws: want pruned and emulated experiments, and redraws",
			sum.Pruned.Total(), n, sum.Skipped)
	}
	if len(sink.views) != n {
		t.Fatalf("%d experiments' rows, want %d", len(sink.views), n)
	}
	seen := make([]plannedExperiment, n)
	for seq, pe := range sink.views {
		seen[seq] = pe
	}
	if got := r.planHashOf(tableOf(seen, true)); got != sum.PlanHash {
		t.Errorf("the plan the rows hold after the run hashes to %.12s…, the plan drawn before it to %.12s…",
			got, sum.PlanHash)
	}
	if sink.uncapped != 0 || uncapped != 0 {
		t.Errorf("%d rows' and %d boards' faults had bits with room to append into", sink.uncapped, uncapped)
	}
}

// TestPlannedExperimentBytes: what a run holds for its plan through the
// whole dispatch — the plan and the run's items — is at most 24 bytes a
// planned experiment, at one bit a fault and a random injection window: the
// live heap after a collection, with both held, against before. (It read
// 264 when every experiment was a struct in each of two slices.) The race
// detector's shadow memory is not heap, but its allocations are larger, so
// under it the test skips; make tier1 runs it without.
func TestPlannedExperimentBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	const n = 100_000
	camp := fakeCampaign(n)
	camp.RandomWindow = [2]uint64{10, 1600}
	r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rs := &run{r: r}
	if err := rs.plan(); err != nil {
		t.Fatal(err)
	}
	rs.enqueue()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(rs.items) != n {
		t.Fatalf("%d items, want %d", len(rs.items), n)
	}
	runtime.KeepAlive(rs)
	perExp := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.2f live bytes a planned experiment (%d experiments)", perExp, n)
	if perExp > 24 {
		t.Errorf("%.2f live bytes a planned experiment, want at most 24", perExp)
	}
}

// TestRunAllocsPerExperiment pins what an experiment allocates in a whole
// run — plan, hand-over, board, sink and the store's write path down to a
// discarded log, at the default cursor cadence — as the slope of a run's
// allocations in its experiment count, on three campaigns over the fake
// target: every experiment pruned (latent, never on a board), every one
// emulated and latent (a bit the table calls read but the outcome ignores)
// and every one emulated and effective (bit 0, which the fake's detection
// reads). They read 0.21, 0.19 and 0.25: a row's record is the sink's,
// handed back once stored, its name and scan difference are carved from
// slabs, and a board runs every experiment in one context of its own — and
// the fake, like the thor board, reads the chain into
// the experiment's vector and hands back the reference's memory when it is
// the same. The slack of half an allocation covers the collections that
// empty the encoders' pool, and the rows in flight when the sink's writer
// runs behind. They read 4.22, 20.29 and 20.29 before (9.25 for the
// emulated ones with a fake that cloned the chain and made its memory
// every read), and 5.84, 21.88 and 21.88 before the plan became one table
// and a run wrote its cursor once. Under the race detector the pool drops
// items at random, so the test skips; make tier1 runs it without.
func TestRunAllocsPerExperiment(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	// The fake chain with bit 0, which decides the fake's outcome, a
	// location of its own.
	tsd := fakeTSD()
	tsd.Chains[0].Locations = []scanchain.Location{
		{Name: "flag", Offset: 0, Width: 1},
		{Name: "regs.a", Offset: 1, Width: 31},
		{Name: "regs.b", Offset: 32, Width: 16},
		{Name: "counter", Offset: 48, Width: 16, ReadOnly: true},
	}
	allRead := fakeDefUse{chain: "internal", access: map[int]Access{}, end: 10000}
	for b := 0; b < 64; b++ {
		allRead.access[b] = AccessRead
	}
	for _, tc := range []struct {
		name     string
		location string
		table    DefUseTable
		want     float64
	}{
		{"pruned", "regs.b", fakeTargetUses(), 0.21},
		{"emulated latent", "regs.b", allRead, 0.19},
		{"emulated effective", "flag", allRead, 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				return testing.AllocsPerRun(2, func() {
					camp := fakeCampaign(n)
					camp.Locations = []string{tc.location}
					db := sqldb.Open()
					db.AttachWAL(sqldb.NewWAL(io.Discard, sqldb.SyncNever))
					st, err := campaign.NewStore(db)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.PutTargetSystem(tsd); err != nil {
						t.Fatal(err)
					}
					if err := st.PutCampaign(camp); err != nil {
						t.Fatal(err)
					}
					sink := campaign.NewBatchingSink(st, 0)
					factory := func() TargetSystem {
						return &forwardingFake{fakeTarget: newFakeTarget(), table: tc.table}
					}
					r, err := NewRunner(factory(), SCIFI, camp, tsd, WithSink(sink), WithBoards(1, factory),
						WithCheckpoints(DefaultCheckpointInterval))
					if err != nil {
						t.Fatal(err)
					}
					sum, err := r.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if err := sink.Close(); err != nil {
						t.Fatal(err)
					}
					pruned := sum.Pruned.Total() == n
					effective := sum.ByStatus[campaign.OutcomeDetected] == n
					if pruned != (tc.name == "pruned") || effective != (tc.name == "emulated effective") {
						t.Fatalf("%d of %d pruned, %d detected: not the campaign the case is", sum.Pruned.Total(), n,
							sum.ByStatus[campaign.OutcomeDetected])
					}
				})
			}
			const lo, hi = 1000, 3000
			perExp := (allocs(hi) - allocs(lo)) / (hi - lo)
			t.Logf("%.2f allocations an experiment", perExp)
			if perExp > tc.want+0.5 {
				t.Errorf("%.2f allocations an experiment, want %.2f and a slack of 0.5", perExp, tc.want)
			}
		})
	}
}
