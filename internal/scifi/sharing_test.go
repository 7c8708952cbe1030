package scifi

import (
	"reflect"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/envsim"
	"goofi/internal/thor"
)

// TestRecordedCapturesStayPut: the reference run's captures share what did
// not change between them — memory pages, page tables, maps and port sets
// of consecutive snapshots, one snapshot for the join points of a repeating
// state, and one array for the checkpoints' outputs — and a board reuses
// its steady-state snapshot's pages and its simulator state from one
// attempt to the next. Faulty runs on the board that recorded them — runs
// that restore checkpoints, re-join, skip a steady state or do neither,
// every one changing the board, its simulator and its outputs — must leave
// every checkpoint, join point and the end state as a deep copy taken when
// the recording ended, and so must a write over the buffers the board
// reuses.
//
// Two references: pid-long's loop, which settles and skips past the
// window, and a 60-iteration one that ends inside it, whose checkpoints'
// outputs lie in the board's own array when it ends unless the recorder
// keeps them apart.
func TestRecordedCapturesStayPut(t *testing.T) {
	long := closedLoopCampaign("steady", 1000)
	tgt, set, _ := steadyFixture(t, long, 8000)
	shared := map[string]int{}
	rejoined, skipped := capturesStayPut(t, tgt, long, set, shared)
	short := closedLoopCampaign("short", 60)
	tgt = New(thorCfg())
	r, s := capturesStayPut(t, tgt, short, recordReference(t, tgt, short, 200, 8000), shared)
	rejoined, skipped = rejoined+r, skipped+s
	if shared["checkpoint"] == 0 || shared["join point"] == 0 {
		t.Errorf("captures sharing with the one before: %v; the check needs both kinds", shared)
	}
	if rejoined == 0 || skipped == 0 {
		t.Errorf("of 80 faulty runs %d re-joined and %d skipped; the check needs both", rejoined, skipped)
	}
	t.Logf("captures sharing with the one before: %v; of 80 faulty runs %d re-joined and %d skipped", shared, rejoined, skipped)
}

// capturesStayPut deep-copies every capture of set, recorded on tgt, runs
// 40 faulty experiments of camp on tgt, and checks the captures against
// the copies after each. It counts the captures that share with the one
// before into shared, and returns how many runs re-joined and skipped.
func capturesStayPut(t *testing.T, tgt *Target, camp *campaign.Campaign, set *core.ForwardSet,
	shared map[string]int) (rejoined, skipped int) {
	t.Helper()
	deepCPU := func(s *thor.Snapshot) *thor.Snapshot {
		c := thor.New(thorCfg())
		if err := c.Restore(s); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot()
	}
	deepSim := func(st any) any {
		if st == nil {
			return nil
		}
		p := &envsim.FirstOrderPlant{}
		if err := p.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		return p.SnapshotState()
	}
	type copied struct {
		what   string
		cpu    *thor.Snapshot
		sim    any
		other  any // the rest of what was captured, copied
		now    func() (*thor.Snapshot, any, any)
		shared bool // the snapshot is its predecessor's
	}
	var caps []copied
	for i, cp := range set.Checkpoints {
		bs := cp.State.(*boardState)
		caps = append(caps, copied{
			what: "checkpoint", cpu: deepCPU(bs.cpu), sim: deepSim(bs.simState),
			other: []any{bs.ctrl, bs.iteration, append([]uint32(nil), bs.outputs...)},
			now: func() (*thor.Snapshot, any, any) {
				return bs.cpu, bs.simState, []any{bs.ctrl, bs.iteration, bs.outputs}
			},
			shared: i > 0 && len(bs.outputs) > 0 &&
				&bs.outputs[0] == &set.Checkpoints[i-1].State.(*boardState).outputs[0],
		})
	}
	j := set.Rejoin.(*rejoin)
	for i := range j.points {
		jp := &j.points[i]
		caps = append(caps, copied{
			what: "join point", cpu: deepCPU(jp.cpu), sim: deepSim(jp.simState),
			other: []any{jp.shift, jp.events, jp.outputs},
			now: func() (*thor.Snapshot, any, any) {
				return jp.cpu, jp.simState, []any{jp.shift, jp.events, jp.outputs}
			},
			shared: i > 0 && jp.cpu == j.points[i-1].cpu,
		})
	}
	caps = append(caps, copied{
		what: "end", cpu: deepCPU(j.end), other: append([]uint32(nil), j.outputs...),
		now: func() (*thor.Snapshot, any, any) { return j.end, nil, j.outputs },
	})
	for _, c := range caps {
		if c.shared {
			shared[c.what]++
		}
	}
	check := func(after string) {
		t.Helper()
		for i, c := range caps {
			cpu, sim, other := c.now()
			if !reflect.DeepEqual(cpu, c.cpu) || !reflect.DeepEqual(sim, c.sim) || !reflect.DeepEqual(other, c.other) {
				t.Fatalf("%s: after %s, capture %d (a %s) changed", camp.Name, after, i, c.what)
			}
		}
	}
	// What the board reuses from run to run, written over as a later run
	// could: no capture may hold a window of it.
	scribble := func() {
		for _, buf := range [][]uint32{tgt.outputs[:cap(tgt.outputs)], tgt.watch.ins[:cap(tgt.watch.ins)]} {
			for i := range buf {
				buf[i] = 0xdead
			}
		}
	}
	scribble()
	check("the recording")
	for seed := int64(3000); seed < 3040; seed++ {
		fault, trig := randomFault(seed)
		_, warm := runWithAndWithoutCut(t, tgt, camp, set, int(seed), fault, trig)
		if warm.Converged {
			rejoined++
		}
		if warm.SteadyCycles > 0 {
			skipped++
		}
		scribble()
		check("a faulty run")
	}
	return rejoined, skipped
}
