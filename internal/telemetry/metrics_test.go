package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeHistogram covers the scalar instrument semantics.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.NewGauge("g", "g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	h := r.NewHistogram("h_seconds", "h", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 3 {
		t.Errorf("histogram count = %d, want 3", got)
	}
	if got := h.Sum(); got != 5.55 {
		t.Errorf("histogram sum = %v, want 5.55", got)
	}
}

// TestCounterVec checks child identity and label isolation.
func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("v_total", "v", "kind")
	a, b := v.With("a"), v.With("b")
	if a != v.With("a") {
		t.Error("With returned a different child for the same label value")
	}
	a.Add(2)
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Errorf("children = %d, %d, want 2, 1", a.Value(), b.Value())
	}
}

// TestDuplicateRegistrationPanics: metric names are a global namespace;
// a collision is a programming error caught at init.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "second")
}

// TestRegistryConcurrent hammers every instrument kind from parallel
// writers while readers snapshot and render the registry; run under
// -race this proves the hot path is data-race free, and the final
// values prove no increment was lost.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc_total", "c")
	g := r.NewGauge("cg", "g")
	h := r.NewHistogram("ch_seconds", "h", DurationBuckets)
	v := r.NewCounterVec("cv_total", "v", "kind")

	const writers, perWriter = 8, 5000
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers: exposition and snapshot race against the writers.
	for i := 0; i < 2; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				snap := r.Snapshot()
				// Histogram count and sum must be mutually consistent
				// enough to both be present; values race, presence not.
				if _, ok := snap["ch_seconds_count"]; !ok {
					t.Error("snapshot missing ch_seconds_count")
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			kind := string(rune('a' + w%4))
			child := v.With(kind)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
				child.Inc()
			}
		}(w)
	}
	// Readers race against live writes for the writers' whole lifetime,
	// then stop so the final values below are quiescent.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Value(); got != writers*perWriter {
		t.Errorf("gauge = %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
	wantSum := float64(writers*perWriter) * 0.001
	if got := h.Sum(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Errorf("histogram sum = %v, want ~%v", got, wantSum)
	}
	var vecTotal uint64
	for _, kind := range []string{"a", "b", "c", "d"} {
		vecTotal += v.With(kind).Value()
	}
	if vecTotal != writers*perWriter {
		t.Errorf("vec total = %d, want %d", vecTotal, writers*perWriter)
	}
}

// TestNilSafety: the runner calls tracer and progress methods
// unconditionally; with telemetry off both are nil and every method
// must be a no-op.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Record(SpanRecord{Phase: "x"})
	if tr.Len() != 0 || tr.Drain() != nil {
		t.Error("nil tracer retained spans")
	}
	var p *Progress
	p.Start("c", 10)
	p.SetPhase("experiment")
	p.Done(1)
	p.AddDone(3)
	p.Retried()
	p.Invalid()
	p.Forwarded()
	p.BoardRunning(0, 1)
	p.BoardIdle(0)
	p.BoardQuarantined(0)
}

// TestTracerDrain: Drain returns the recorded spans in order and resets.
func TestTracerDrain(t *testing.T) {
	tr := NewTracer()
	tr.Record(SpanRecord{Phase: "plan"})
	tr.Record(SpanRecord{Phase: "experiment", Seq: 1})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	spans := tr.Drain()
	if len(spans) != 2 || spans[0].Phase != "plan" || spans[1].Seq != 1 {
		t.Fatalf("Drain = %+v", spans)
	}
	if tr.Len() != 0 || len(tr.Drain()) != 0 {
		t.Error("Drain did not reset the tracer")
	}
}

// TestProgressSnapshot: the derived throughput and ETA fields follow
// from done/total and elapsed time.
func TestProgressSnapshot(t *testing.T) {
	p := NewProgress(2)
	p.Start("demo", 100)
	p.SetPhase("experiment")
	p.AddDone(9)
	p.Done(1)
	p.Retried()
	p.Invalid()
	p.Forwarded()
	p.BoardRunning(0, 10)
	p.BoardQuarantined(1)
	s := p.Snapshot()
	if s.Campaign != "demo" || s.Phase != "experiment" {
		t.Errorf("campaign/phase = %q/%q", s.Campaign, s.Phase)
	}
	if s.Done != 10 || s.Total != 100 {
		t.Errorf("done/total = %d/%d, want 10/100", s.Done, s.Total)
	}
	if s.Retried != 1 || s.InvalidRuns != 1 || s.Forwarded != 1 {
		t.Errorf("retried/invalid/forwarded = %d/%d/%d", s.Retried, s.InvalidRuns, s.Forwarded)
	}
	if s.ElapsedSeconds <= 0 || s.RecordsPerSecond <= 0 || s.ETASeconds <= 0 {
		t.Errorf("derived fields = %v %v %v, want all > 0",
			s.ElapsedSeconds, s.RecordsPerSecond, s.ETASeconds)
	}
	if len(s.Boards) != 2 {
		t.Fatalf("boards = %d, want 2", len(s.Boards))
	}
	if s.Boards[0].State != BoardRunning || s.Boards[0].Seq != 10 {
		t.Errorf("board 0 = %+v", s.Boards[0])
	}
	if s.Boards[1].State != BoardQuarantined {
		t.Errorf("board 1 = %+v", s.Boards[1])
	}
}

// TestProgressRateCountsThisRun: a resumed campaign's restored records
// count in Done, not in the rate or the ETA: the rate times the elapsed
// time is the records this run made.
func TestProgressRateCountsThisRun(t *testing.T) {
	p := NewProgress(1)
	p.Start("demo", 2000)
	p.AddDone(1000)
	if s := p.Snapshot(); s.Done != 1000 || s.RecordsPerSecond != 0 || s.ETASeconds != 0 {
		t.Errorf("restored records only: done %d, %v records/s, ETA %v; want 1000, 0, 0",
			s.Done, s.RecordsPerSecond, s.ETASeconds)
	}
	p.Done(10)
	p.SetPhase(PhaseDone)
	s := p.Snapshot()
	if s.Done != 1010 {
		t.Errorf("done %d, want 1010", s.Done)
	}
	if ran := s.RecordsPerSecond * s.ElapsedSeconds; math.Abs(ran-10) > 1e-6 {
		t.Errorf("records/s × elapsed = %v, want 10", ran)
	}
	if left := s.ETASeconds * s.RecordsPerSecond; math.Abs(left-990) > 1e-6 {
		t.Errorf("ETA × records/s = %v, want the 990 left", left)
	}
}

// TestProgressClockStopsAtTerminalPhase: a finished campaign's elapsed time
// and throughput are what they were when it ended, however much later the
// snapshot is taken; a phase that is not terminal starts the clock again.
func TestProgressClockStopsAtTerminalPhase(t *testing.T) {
	for _, phase := range []string{PhaseDone, PhaseStopped, PhaseFailed} {
		p := NewProgress(1)
		p.Start("demo", 10)
		p.Done(10)
		p.SetPhase(phase)
		first := p.Snapshot()
		time.Sleep(2 * time.Millisecond)
		later := p.Snapshot()
		if first.ElapsedSeconds <= 0 || later.ElapsedSeconds != first.ElapsedSeconds ||
			later.RecordsPerSecond != first.RecordsPerSecond {
			t.Errorf("phase %q: elapsed %v then %v, records/s %v then %v — the clock did not stop",
				phase, first.ElapsedSeconds, later.ElapsedSeconds, first.RecordsPerSecond, later.RecordsPerSecond)
		}
		p.SetPhase("experiment")
		if again := p.Snapshot(); again.ElapsedSeconds <= later.ElapsedSeconds {
			t.Errorf("phase %q then a running one: elapsed %v, not past %v", phase, again.ElapsedSeconds, later.ElapsedSeconds)
		}
	}
}
