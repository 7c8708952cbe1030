// The hand-over between the pruner and the store. A pruned experiment's
// record reaches the sink as "the reference plus these bits"
// (campaign.ExperimentRecord.FromRef); the parent of that change handed
// over the whole state — the reference's final scan cloned, the latent bits
// flipped, the vector marshaled — and let the encoder find the difference
// again. Both must encode to the same row, and that row must be the one an
// emulated run of the same experiment logs.
package goofi_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
)

// recordTee keeps every record the runner hands to the sink behind it.
type recordTee struct {
	core.ResultSink
	mu     sync.Mutex
	logged map[string]*campaign.ExperimentRecord
}

func (s *recordTee) LogExperiment(rec *campaign.ExperimentRecord) error {
	s.mu.Lock()
	s.logged[rec.Name] = rec
	s.mu.Unlock()
	return s.ResultSink.LogExperiment(rec)
}

// loggedRecords runs camp on thor into a fresh store and returns what the
// runner logged, by experiment name.
func loggedRecords(t *testing.T, camp *campaign.Campaign, opts ...core.RunnerOption) map[string]*campaign.ExperimentRecord {
	t.Helper()
	sp := &spec{camp: camp}
	tee := &recordTee{ResultSink: sp.store(t, camp), logged: map[string]*campaign.ExperimentRecord{}}
	r, err := core.NewRunner(healthyFactory(), core.SCIFI, camp, sp.tsd(camp), append(opts, core.WithSink(tee))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tee.logged
}

// materialised is the record the parent's pruner built for rec: the
// reference's scan vector cloned, the listed bits flipped, the clone
// marshaled into State beside the reference's memory and outputs.
func materialised(t *testing.T, rec *campaign.ExperimentRecord) *campaign.ExperimentRecord {
	t.Helper()
	var scan bitvec.Vector
	if err := scan.UnmarshalBinary(rec.Ref.State.Scan); err != nil {
		t.Fatal(err)
	}
	final := scan.Clone()
	for _, pos := range rec.ScanDiff {
		final.Flip(pos - bitvec.MarshaledHeaderBits)
	}
	b, err := final.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out := *rec
	out.State = campaign.StateVector{Scan: b, Memory: rec.Ref.State.Memory, Outputs: rec.Ref.State.Outputs}
	out.ScanDiff, out.FromRef = nil, false
	return &out
}

func TestPrunedRecordEncodesAsMaterialised(t *testing.T) {
	pidLong := pidLongCampaign("pid-long", 60) // the benchmark workload's definition
	multi := pidCampaign("multi", 150, 5)
	multi.FaultModel.Multiplicity = 3
	// By the number of bits that stay flipped: none is an overwritten fault.
	seen := map[int]int{}
	for _, camp := range []*campaign.Campaign{pidCampaign("e1", 200, 1), multi, pidLong} {
		t.Run(camp.Name, func(t *testing.T) {
			pruned := loggedRecords(t, camp)
			emulated := loggedRecords(t, camp, noForwarding)
			n := 0
			for name, rec := range pruned {
				if !rec.FromRef {
					continue
				}
				n++
				seen[len(rec.ScanDiff)]++
				row, err := campaign.EncodeRow(rec)
				if err != nil {
					t.Fatal(err)
				}
				whole := materialised(t, rec)
				if want, err := campaign.EncodeRow(whole); err != nil || !reflect.DeepEqual(row, want) {
					t.Fatalf("%s (bits %v): the pruner's record encodes as\n%s\n%x\nmaterialised as (%v)\n%s\n%x", name,
						rec.ScanDiff, row.Cols[4].B, row.Cols[5].B, err, want.Cols[4].B, want.Cols[5].B)
				}
				oracle := emulated[name]
				if oracle == nil || oracle.FromRef {
					t.Fatalf("%s: no emulated record to compare with", name)
				}
				if want, err := campaign.EncodeRow(oracle); err != nil || !reflect.DeepEqual(row, want) {
					t.Fatalf("%s (bits %v): the pruner's record encodes as\n%s\n%x\nthe emulated run's as (%v)\n%s\n%x", name,
						rec.ScanDiff, row.Cols[4].B, row.Cols[5].B, err, want.Cols[4].B, want.Cols[5].B)
				}
				// Read back, it is the materialised state — as the absolute
				// form returns it, nil and empty included.
				got, err := campaign.DecodeRow(&row, rec.Ref)
				if err != nil {
					t.Fatal(err)
				}
				whole.Ref = nil
				absolute, err := campaign.EncodeRow(whole)
				if err != nil {
					t.Fatal(err)
				}
				want, err := campaign.DecodeRow(&absolute, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.State, want.State) {
					t.Fatalf("%s decodes to\n%+v\nwant\n%+v", name, got.State, want.State)
				}
				if spelled, err := rec.WholeState(); err != nil || !reflect.DeepEqual(spelled, &whole.State) {
					t.Fatalf("%s: WholeState %+v (%v), materialised %+v", name, spelled, err, whole.State)
				}
			}
			if n == 0 {
				t.Fatal("nothing was pruned: the case is vacuous")
			}
			t.Logf("%d of %d experiments pruned", n, camp.NumExperiments)
		})
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2]+seen[3] == 0 {
		t.Errorf("pruned records by latent bits: %v; want overwritten, single-bit and multi-bit ones", seen)
	}
}
