package campaign

import (
	"sync"
	"testing"
)

func sinkFixture(t *testing.T) *Store {
	t.Helper()
	st := newStore(t)
	if err := st.PutTargetSystem(testTarget()); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign(testCampaign()); err != nil {
		t.Fatal(err)
	}
	return st
}

func sinkRecord(i int) *ExperimentRecord {
	return &ExperimentRecord{
		Name:     ExperimentName("camp-1", i),
		Campaign: "camp-1",
		Step:     -1,
	}
}

func TestBatchingSinkFlushMakesRecordsVisible(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 10)
	for i := 0; i < 25; i++ {
		if err := s.LogExperiment(sinkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 {
		t.Errorf("after flush: %d records, want 25", len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close rejects further records.
	if err := s.LogExperiment(sinkRecord(99)); err == nil {
		t.Error("log after close accepted")
	}
}

func TestBatchingSinkGetExperimentReadsOwnWrites(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 1000) // never fills on its own
	defer s.Close()
	if err := s.LogExperiment(sinkRecord(0)); err != nil {
		t.Fatal(err)
	}
	rec, err := s.GetExperiment(ExperimentName("camp-1", 0))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != ExperimentName("camp-1", 0) {
		t.Errorf("got %q", rec.Name)
	}
}

func TestBatchingSinkErrorPoisons(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 2)
	// A record violating the campaign FK fails the batch write.
	bad := &ExperimentRecord{Name: "x/exp", Campaign: "missing", Step: -1}
	_ = s.LogExperiment(bad)
	_ = s.LogExperiment(sinkRecord(1)) // completes the batch, triggers the write
	if err := s.Flush(); err == nil {
		t.Fatal("flush after failed batch returned nil")
	}
	// The error is sticky.
	if err := s.LogExperiment(sinkRecord(2)); err == nil {
		t.Error("poisoned sink accepted a record")
	}
	if err := s.Close(); err == nil {
		t.Error("poisoned sink closed without error")
	}
}

func TestBatchingSinkConcurrentProducers(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 7)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.LogExperiment(sinkRecord(w*50 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Experiments("camp-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Errorf("stored %d records, want 200", len(recs))
	}
}
