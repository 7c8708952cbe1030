package main

// The tracing side: spans recorded from the benchmark's own files,
// around the calls into each layer. Decorators wrap core.TargetSystem
// (one span per Fig 3 abstract method per experiment) and
// core.CheckpointSink; a RoundTripper wraps the shard transport. Spans
// stay in memory and are written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"goofi/internal/campaign"
	"goofi/internal/core"
)

// op identifies the call a span covers.
type op uint8

const (
	opInitTestCard op = iota
	opLoadWorkload
	opWriteMemory
	opRunWorkload
	opWaitForBreakpoint
	opReadScanChain
	opInjectFault
	opWriteScanChain
	opWaitForTermination
	opReadMemory
	opSinkLog
	opSinkGet
	opSinkFlush
	opSinkCheckpoint
	opHTTP
	numOps
)

var opNames = [numOps]string{
	"target.InitTestCard", "target.LoadWorkload", "target.WriteMemory",
	"target.RunWorkload", "target.WaitForBreakpoint", "target.ReadScanChain",
	"target.InjectFault", "target.WriteScanChain", "target.WaitForTermination",
	"target.ReadMemory", "sink.LogExperiment", "sink.GetExperiment",
	"sink.Flush", "sink.SaveCheckpoint", "shard.http",
}

// noSeq marks a span that belongs to the campaign, not one experiment.
const noSeq = -2

// span is one recorded interval. Its parent is the experiment seq names
// (-1 is the reference run), and every span of a log shares the
// campaign.
type span struct {
	op      op
	board   int32
	seq     int32
	startNS int64 // since the log's epoch
	durNS   int64
}

// spanLog collects a traced run's spans.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(o op, board, seq int, start time.Time, dur time.Duration) {
	l.mu.Lock()
	l.spans = append(l.spans, span{op: o, board: int32(board), seq: int32(seq),
		startNS: start.Sub(l.epoch).Nanoseconds(), durNS: dur.Nanoseconds()})
	l.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		rec := struct {
			Name     string `json:"name"`
			Campaign string `json:"campaign"`
			Parent   string `json:"parent,omitempty"`
			Board    int32  `json:"board"`
			StartNS  int64  `json:"start_ns"`
			DurNS    int64  `json:"dur_ns"`
		}{Name: opNames[s.op], Campaign: campaignName, Board: s.board, StartNS: s.startNS, DurNS: s.durNS}
		switch {
		case s.seq == -1:
			rec.Parent = campaign.ReferenceName(campaignName)
		case s.seq >= 0:
			rec.Parent = campaign.ExperimentName(campaignName, int(s.seq))
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTarget times every abstract method of the target it wraps. The
// optional target capabilities are added by the types below, so the
// wrapper offers exactly what its inner target does and the scheduler
// takes the same decisions with and without it.
type tracedTarget struct {
	inner core.TargetSystem
	log   *spanLog
	board int
}

func (t *tracedTarget) call(o op, ex *core.Experiment, fn func(*core.Experiment) error) error {
	start := time.Now()
	err := fn(ex)
	t.log.add(o, t.board, ex.Seq, start, time.Since(start))
	return err
}

func (t *tracedTarget) Name() string { return t.inner.Name() }
func (t *tracedTarget) InitTestCard(ex *core.Experiment) error {
	return t.call(opInitTestCard, ex, t.inner.InitTestCard)
}
func (t *tracedTarget) LoadWorkload(ex *core.Experiment) error {
	return t.call(opLoadWorkload, ex, t.inner.LoadWorkload)
}
func (t *tracedTarget) WriteMemory(ex *core.Experiment) error {
	return t.call(opWriteMemory, ex, t.inner.WriteMemory)
}
func (t *tracedTarget) RunWorkload(ex *core.Experiment) error {
	return t.call(opRunWorkload, ex, t.inner.RunWorkload)
}
func (t *tracedTarget) WaitForBreakpoint(ex *core.Experiment) error {
	return t.call(opWaitForBreakpoint, ex, t.inner.WaitForBreakpoint)
}
func (t *tracedTarget) ReadScanChain(ex *core.Experiment) error {
	return t.call(opReadScanChain, ex, t.inner.ReadScanChain)
}
func (t *tracedTarget) InjectFault(ex *core.Experiment) error {
	return t.call(opInjectFault, ex, t.inner.InjectFault)
}
func (t *tracedTarget) WriteScanChain(ex *core.Experiment) error {
	return t.call(opWriteScanChain, ex, t.inner.WriteScanChain)
}
func (t *tracedTarget) WaitForTermination(ex *core.Experiment) error {
	return t.call(opWaitForTermination, ex, t.inner.WaitForTermination)
}
func (t *tracedTarget) ReadMemory(ex *core.Experiment) error {
	return t.call(opReadMemory, ex, t.inner.ReadMemory)
}

// Deterministic delegates core.NondeterministicTarget; a target that
// does not declare the capability is deterministic, which is also what
// core.TargetDeterministic answers for it.
func (t *tracedTarget) Deterministic() bool { return core.TargetDeterministic(t.inner) }

// forwardingTarget adds core.Forwarder for inner targets that forward.
type forwardingTarget struct {
	*tracedTarget
	fw core.Forwarder
}

func (t *forwardingTarget) ArmForwardRecording(plan *core.ForwardPlan) {
	t.fw.ArmForwardRecording(plan)
}
func (t *forwardingTarget) TakeForwardSet() *core.ForwardSet   { return t.fw.TakeForwardSet() }
func (t *forwardingTarget) SetForwardSet(set *core.ForwardSet) { t.fw.SetForwardSet(set) }

// calibratingTarget adds core.ForwardCalibrator on top.
type calibratingTarget struct {
	*forwardingTarget
	cal core.ForwardCalibrator
}

func (t *calibratingTarget) ForwardCostCycles() uint64 { return t.cal.ForwardCostCycles() }

// traceTarget wraps a target with the narrowest decorator that still
// exposes every optional interface the inner target implements.
func traceTarget(inner core.TargetSystem, log *spanLog, board int) core.TargetSystem {
	base := &tracedTarget{inner: inner, log: log, board: board}
	fw, ok := inner.(core.Forwarder)
	if !ok {
		return base
	}
	fwd := &forwardingTarget{tracedTarget: base, fw: fw}
	if cal, ok := inner.(core.ForwardCalibrator); ok {
		return &calibratingTarget{forwardingTarget: fwd, cal: cal}
	}
	return fwd
}

// tracedSink times the result sink the scheduler writes through.
type tracedSink struct {
	inner core.CheckpointSink
	log   *spanLog
}

func (s *tracedSink) LogExperiment(r *campaign.ExperimentRecord) error {
	start := time.Now()
	err := s.inner.LogExperiment(r)
	s.log.add(opSinkLog, -1, r.Data.Seq, start, time.Since(start))
	return err
}

func (s *tracedSink) GetExperiment(name string) (*campaign.ExperimentRecord, error) {
	start := time.Now()
	r, err := s.inner.GetExperiment(name)
	s.log.add(opSinkGet, -1, noSeq, start, time.Since(start))
	return r, err
}

func (s *tracedSink) Flush() error {
	start := time.Now()
	err := s.inner.Flush()
	s.log.add(opSinkFlush, -1, noSeq, start, time.Since(start))
	return err
}

func (s *tracedSink) SaveCheckpoint(cp *campaign.Checkpoint) error {
	start := time.Now()
	err := s.inner.SaveCheckpoint(cp)
	s.log.add(opSinkCheckpoint, -1, noSeq, start, time.Since(start))
	return err
}

// tracedKind is a registry entry that builds scifi targets behind the
// tracing decorator. Shard workers construct their targets from the
// lease's target kind, so a registered kind is the one way to decorate
// targets inside them. Spans go to whichever log is active.
const tracedKind = "bench-traced-scifi"

var (
	activeLog   atomic.Pointer[spanLog]
	tracedBoard atomic.Int32
)

func init() {
	base, ok := core.LookupTarget("scifi")
	if !ok {
		panic("bench: scifi target not registered")
	}
	info := base
	info.Kind = tracedKind
	info.Aliases = nil
	info.Description = "scifi behind the benchmark's tracing decorator"
	info.New = func(cfg core.TargetConfig) (core.TargetSystem, error) {
		ts, err := base.New(cfg)
		if err != nil {
			return nil, err
		}
		log := activeLog.Load()
		if log == nil {
			return ts, nil
		}
		return traceTarget(ts, log, int(tracedBoard.Add(1))-1), nil
	}
	core.RegisterTarget(info)
}

// httpCall is one observed shard transport round trip.
type httpCall struct {
	action    string
	durNS     int64
	reqBytes  int64
	respBytes int64
}

// countingTransport counts and times what crosses the shard transport:
// request and response body bytes, and the wall from sending the request
// to the response body's close.
type countingTransport struct {
	base http.RoundTripper
	log  *spanLog // may be nil

	mu    sync.Mutex
	calls []httpCall
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	call := httpCall{action: pathTail(req.URL.Path), reqBytes: req.ContentLength}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.done(call, start)
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, onClose: func(n int64) {
		call.respBytes = n
		c.done(call, start)
	}}
	return resp, nil
}

func (c *countingTransport) done(call httpCall, start time.Time) {
	dur := time.Since(start)
	call.durNS = dur.Nanoseconds()
	c.mu.Lock()
	c.calls = append(c.calls, call)
	c.mu.Unlock()
	if c.log != nil {
		c.log.add(opHTTP, -1, noSeq, start, dur)
	}
}

func pathTail(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

type countingBody struct {
	rc      io.ReadCloser
	n       int64
	once    sync.Once
	onClose func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() { b.onClose(b.n) })
	return err
}
