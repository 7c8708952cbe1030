// A run that observes what the reference run did holds the reference's own
// memory and outputs slices in its result, not copies of them
// (core.Experiment.Reference): the row a shared slice makes is the row a
// copy makes. The test below pins both halves of that: the rows are the
// oracle's, and a board that wrote through a shared slice would not get
// past the differential that pins them.
package goofi_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/core"
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
	camp := func() *campaign.Campaign { return pidCampaign("shared", 200, 1) }
	// Forwarding off: every experiment runs on the board, and the watch
	// needs no Forwarder.
	run := func(shared *atomic.Int64, write bool) (outcome, error) {
		return runBoards(t, camp(), 1, func() core.TargetSystem {
			return &sharingWatch{TargetSystem: healthyFactory(), shared: shared, write: write}
		}, noForwarding)
	}
	oracle, err := runBoards(t, camp(), 1, healthyFactory, noForwarding)
	if err != nil {
		t.Fatal(err)
	}
	var shared atomic.Int64
	got, err := run(&shared, false)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, oracle, got)
	if shared.Load() == 0 {
		t.Fatal("no run shared a slice with the reference's result: the case proves nothing")
	}
	t.Logf("%d of 200 runs shared the reference's slices", shared.Load())

	// A board that writes through them changes the reference the rows are
	// stored relative to, and the reference row, still queued: either the
	// store refuses to read the rows back or they are not the oracle's.
	var written atomic.Int64
	got, err = run(&written, true)
	if written.Load() == 0 {
		t.Fatal("the writing board found no shared slice to write through")
	}
	switch {
	case err != nil:
		t.Logf("a board that wrote through the reference's slices: %v", err)
	case slices.Equal(got.rows, oracle.rows):
		t.Error("a board that wrote through the reference's slices stored the oracle's rows: the differential would not see it")
	}
}
