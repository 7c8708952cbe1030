package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"goofi/internal/campaign"
)

// recordJSON renders a campaign's stored records (reference included) to
// canonical JSON keyed by experiment name.
func recordJSON(t *testing.T, st *campaign.Store, name string) map[string]string {
	t.Helper()
	recs, err := st.Experiments(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(recs))
	for _, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out[rec.Name] = string(blob)
	}
	return out
}

// TestShardRangeUnionMatchesFullRun is the core-level sharding pin: the
// plan split into disjoint [lo,hi) ranges, each executed by its own
// runner into its own store, reproduces the full single-runner campaign
// record for record.
func TestShardRangeUnionMatchesFullRun(t *testing.T) {
	const n = 24
	full := func() map[string]string {
		camp := fakeCampaign(n)
		st := storeWithCampaign(t, camp)
		r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(), WithSink(st))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return recordJSON(t, st, camp.Name)
	}()

	for _, shards := range []int{1, 2, 3, 4} {
		union := make(map[string]string)
		per := (n + shards - 1) / shards
		for s := 0; s < shards; s++ {
			lo, hi := s*per, (s+1)*per
			if hi > n {
				hi = n
			}
			camp := fakeCampaign(n)
			st := storeWithCampaign(t, camp)
			r, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
				WithSink(st), WithShardRange(lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			sum, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Experiments != hi-lo {
				t.Fatalf("shard [%d,%d): ran %d experiments, want %d", lo, hi, sum.Experiments, hi-lo)
			}
			for name, blob := range recordJSON(t, st, camp.Name) {
				if prev, dup := union[name]; dup {
					// Every shard runs the reference; it must be identical.
					if name != campaign.ReferenceName(camp.Name) {
						t.Fatalf("shard [%d,%d): duplicate record %s", lo, hi, name)
					}
					if prev != blob {
						t.Fatalf("reference record differs between shards")
					}
				}
				union[name] = blob
			}
		}
		if len(union) != len(full) {
			t.Fatalf("shards=%d: union has %d records, full run has %d", shards, len(union), len(full))
		}
		for name, blob := range full {
			if union[name] != blob {
				t.Errorf("shards=%d: record %s differs\n sharded: %s\n    full: %s",
					shards, name, union[name], blob)
			}
		}
	}
}

// TestShardRangeResumeSkipsCompleted pins the path every run takes: a
// second range run with WithResume over the shard's own durable records
// skips everything already logged and executes only the new range, after
// running the reference again — which, the cursor saying it is logged,
// adds no row and leaves the logged one as it was.
func TestShardRangeResumeSkipsCompleted(t *testing.T) {
	const n = 12
	camp := fakeCampaign(n)
	st := storeWithCampaign(t, camp)
	r1, err := NewRunner(newFakeTarget(), SCIFI, camp, fakeTSD(),
		WithSink(st), WithShardRange(0, 4), WithCheckpoints(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	refName := campaign.ReferenceName(camp.Name)
	refBefore := recordJSON(t, st, camp.Name)[refName]
	cp, err := st.RecoverCursor(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Reference || fmt.Sprint(cp.Ranges) != "[[0 3]]" {
		t.Fatalf("cursor after first range = %+v", cp)
	}
	tgt := newFakeTarget()
	r2, err := NewRunner(tgt, SCIFI, camp, fakeTSD(),
		WithSink(st), WithShardRange(8, 12), WithCheckpoints(2), WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Experiments != 4 {
		t.Fatalf("second range ran %d experiments, want 4", sum.Experiments)
	}
	inits := 0
	for _, c := range tgt.calls {
		if c == "init" {
			inits++
		}
	}
	if inits != 5 {
		t.Errorf("second range initialised its board %d times, want 5: the reference and 4 experiments", inits)
	}
	stored, err := st.Experiments(camp.Name)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordJSON(t, st, camp.Name)
	if len(stored) != 9 || len(recs) != 9 { // reference + seqs 0..3 + seqs 8..11, each once
		t.Fatalf("shard store has %d records under %d names, want 9 under 9", len(stored), len(recs))
	}
	if recs[refName] != refBefore {
		t.Errorf("the reference record changed under the second range\n got: %s\nwant: %s", recs[refName], refBefore)
	}
	for _, seq := range []int{4, 5, 6, 7} {
		if _, ok := recs[campaign.ExperimentName(camp.Name, seq)]; ok {
			t.Errorf("seq %d ran outside its range", seq)
		}
	}
}
