// A run that observes what the reference run did holds the reference's own
// memory and outputs slices in its result, not copies of them
// (core.Experiment.Reference): the row a shared slice makes is the row a
// copy makes. The test below pins both halves of that: the rows are the
// oracle's, and a board that wrote through a shared slice would not get
// past the differential that pins them.
package goofi_test

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scifi"
	"goofi/internal/sqldb"
	"goofi/internal/thor"
)

// sharingWatch counts the runs whose result shares a slice with the
// reference's, and, with write set, writes through the first it finds.
type sharingWatch struct {
	core.TargetSystem
	shared *atomic.Int64
	write  bool
}

func (w *sharingWatch) ReadMemory(ex *core.Experiment) error {
	if err := w.TargetSystem.ReadMemory(ex); err != nil || ex.Reference == nil {
		return err
	}
	for sym, v := range ex.Result.Memory {
		if rv := ex.Reference.Memory[sym]; len(v) > 0 && campaign.Aliased(v, rv) {
			w.shared.Add(1)
			if w.write {
				v[0] ^= 1
			}
			return nil
		}
	}
	for port, v := range ex.Result.Outputs {
		if rv := ex.Reference.Outputs[port]; len(v) > 0 && campaign.Aliased(v, rv) {
			w.shared.Add(1)
			if w.write {
				v[0] ^= 1
			}
			return nil
		}
	}
	return nil
}

func TestSharedReferenceSlices(t *testing.T) {
	tsd := scifi.TargetSystemData("thor-board")
	camp := func() *campaign.Campaign { return pidCampaign("shared", 200, 1) }
	oracle := runPruneCase(t, camp(), tsd, core.SCIFI,
		func() core.TargetSystem { return scifi.New(thor.DefaultConfig()) }, noForwarding)
	// Forwarding off: every experiment runs on the board, and the watch
	// needs no Forwarder.
	watch := func(shared *atomic.Int64, write bool) func() core.TargetSystem {
		return func() core.TargetSystem {
			return &sharingWatch{TargetSystem: scifi.New(thor.DefaultConfig()), shared: shared, write: write}
		}
	}

	var shared atomic.Int64
	assertSameCampaign(t, oracle, runPruneCase(t, camp(), tsd, core.SCIFI, watch(&shared, false), noForwarding))
	if shared.Load() == 0 {
		t.Fatal("no run shared a slice with the reference's result: the case proves nothing")
	}
	t.Logf("%d of 200 runs shared the reference's slices", shared.Load())

	// A board that writes through them changes the reference the rows are
	// stored relative to, and the reference row, still queued: either the
	// store refuses to read the rows back or they are not the oracle's.
	var written atomic.Int64
	st, err := campaign.NewStore(sqldb.Open())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutTargetSystem(tsd); err != nil {
		t.Fatal(err)
	}
	c := camp()
	if err := st.PutCampaign(c); err != nil {
		t.Fatal(err)
	}
	sink := campaign.NewBatchingSink(st, 0)
	r, err := core.NewRunner(watch(&written, true)(), core.SCIFI, c, tsd, core.WithSink(sink), noForwarding)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background())
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if written.Load() == 0 {
		t.Fatal("the writing board found no shared slice to write through")
	}
	var recs []*campaign.ExperimentRecord
	if err == nil {
		recs, err = st.Experiments(c.Name)
	}
	if err != nil {
		t.Logf("a board that wrote through the reference's slices: %v", err)
		return
	}
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(oracle.rows) || string(b) != oracle.rows[i] {
			t.Logf("a board that wrote through the reference's slices stored another row %d", i)
			return
		}
	}
	t.Error("a board that wrote through the reference's slices stored the oracle's rows: the differential would not see it")
}
