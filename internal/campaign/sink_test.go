package campaign

import (
	"reflect"
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

// TestBatchingSinkTapSeesStoredRows: the tap is handed every row exactly
// once, in log order, by the time Flush returns, and what it is handed is
// what the store holds — inserted into a second store with InsertRows and
// read back with StoredGroup, the rows are the first store's, byte for
// byte, step rows riding in front of their end row.
func TestBatchingSinkTapSeesStoredRows(t *testing.T) {
	st := sinkFixture(t)
	s := NewBatchingSink(st, 4)
	var tapped []Row // the writer goroutine's until Flush returns
	s.Tap(func(rows []Row) { tapped = append(tapped, rows...) })
	var want []string
	for i := 0; i < 10; i++ {
		end := sinkRecord(i)
		end.Data.Seq = i
		end.State.Scan = []byte{byte(i), 0xfe}
		step := &ExperimentRecord{Name: end.Name + "/step000000", Parent: end.Name, Campaign: "camp-1",
			Step: 0, State: StateVector{Scan: []byte{byte(i)}}}
		for _, rec := range []*ExperimentRecord{step, end} {
			if err := s.LogExperiment(rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec.Name)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(tapped) != len(want) {
		t.Fatalf("tap saw %d rows by the time Flush returned, want %d", len(tapped), len(want))
	}
	for i, name := range want {
		if tapped[i].Name() != name {
			t.Fatalf("tapped row %d is %s, want %s", i, tapped[i].Name(), name)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	merged := sinkFixture(t)
	if err := merged.InsertRows(tapped); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		name := ExperimentName("camp-1", i)
		a, err := st.StoredGroup(name, i, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := merged.StoredGroup(name, i, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 2 || a[0].Step() != 0 || a[1].Step() != -1 || a[1].Seq != i {
			t.Fatalf("%s stored as %d rows (steps %d.., seq %d), want its step row, then its end row", name, len(a), a[0].Step(), a[1].Seq)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s differs between the store that encoded it and the store that was handed its rows", name)
		}
		if !reflect.DeepEqual(a[1], tapped[2*i+1]) {
			t.Fatalf("%s read back differs from the row the tap was handed", name)
		}
	}
	if rows, err := st.StoredGroup("camp-1/none", 0, true); err != nil || rows != nil {
		t.Fatalf("an experiment the store does not hold read back as %d rows, %v", len(rows), err)
	}
}
