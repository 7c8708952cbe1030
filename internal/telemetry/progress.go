package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Board states reported in a progress snapshot.
const (
	BoardIdle        = "idle"
	BoardRunning     = "running"
	BoardQuarantined = "quarantined"
)

// Terminal phases: the campaign's work has ended, and SetPhase stops the
// clock on them.
const (
	PhaseDone    = "done"
	PhaseStopped = "stopped"
	PhaseFailed  = "failed"
)

// boardSlot is one board's live state: a state code and the sequence
// number it is working on. Both atomic so workers update without locks.
type boardSlot struct {
	state atomic.Int32 // 0 idle, 1 running, 2 quarantined
	seq   atomic.Int64
}

var boardStateNames = [...]string{BoardIdle, BoardRunning, BoardQuarantined}

// Progress is the live view of one running campaign: totals, per-board
// state, and enough timing to derive throughput and an ETA. All update
// paths are atomic stores/adds; only Snapshot allocates.
type Progress struct {
	mu       sync.Mutex
	campaign string
	phase    string
	start    time.Time
	end      time.Time // zero while the clock runs

	total atomic.Int64
	done  atomic.Int64
	// resumed is the share of done an earlier run made (AddDone).
	resumed   atomic.Int64
	retried   atomic.Int64
	invalid   atomic.Int64
	forwarded atomic.Int64

	boards []*boardSlot

	workersFn atomic.Value // func() []WorkerStatus
}

// NewProgress returns a tracker for a campaign with the given board
// count. The clock starts at Start, not construction.
func NewProgress(boards int) *Progress {
	p := &Progress{boards: make([]*boardSlot, boards)}
	for i := range p.boards {
		p.boards[i] = &boardSlot{}
	}
	return p
}

// Start stamps the campaign identity and total and begins the clock.
func (p *Progress) Start(campaign string, total int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.campaign = campaign
	p.start = time.Now()
	p.mu.Unlock()
	p.total.Store(int64(total))
}

// SetPhase records the current campaign phase; a terminal one stops the
// clock, so a finished campaign's elapsed time and throughput stay what
// they were when it ended. Safe on nil.
func (p *Progress) SetPhase(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = phase
	switch phase {
	case PhaseDone, PhaseStopped, PhaseFailed:
		p.end = time.Now()
	default:
		p.end = time.Time{}
	}
	p.mu.Unlock()
}

// Done bumps the completed-experiment count by n this run made (a shard
// coordinator's mirror adds its workers' records). Safe on nil.
func (p *Progress) Done(n int) {
	if p != nil {
		p.done.Add(int64(n))
	}
}

// AddDone credits n already-completed experiments (a resumed campaign's
// durable prefix): done, not in this run's rate. Safe on nil.
func (p *Progress) AddDone(n int) {
	if p != nil {
		p.resumed.Add(int64(n)) // before done: Snapshot reads done first
		p.done.Add(int64(n))
	}
}

// Retried bumps the retry count. Safe on nil.
func (p *Progress) Retried() {
	if p != nil {
		p.retried.Add(1)
	}
}

// Invalid bumps the invalid-run count. Safe on nil.
func (p *Progress) Invalid() {
	if p != nil {
		p.invalid.Add(1)
	}
}

// Forwarded bumps the checkpoint-forwarded count. Safe on nil.
func (p *Progress) Forwarded() {
	if p != nil {
		p.forwarded.Add(1)
	}
}

// BoardRunning marks a board as executing the given experiment. Safe on
// nil and on out-of-range boards.
func (p *Progress) BoardRunning(board, seq int) { p.setBoard(board, 1, seq) }

// BoardIdle marks a board as idle. Safe on nil.
func (p *Progress) BoardIdle(board int) { p.setBoard(board, 0, -1) }

// BoardQuarantined marks a board as quarantined. Safe on nil.
func (p *Progress) BoardQuarantined(board int) { p.setBoard(board, 2, -1) }

func (p *Progress) setBoard(board int, state int32, seq int) {
	if p == nil || board < 0 || board >= len(p.boards) {
		return
	}
	p.boards[board].seq.Store(int64(seq))
	p.boards[board].state.Store(state)
}

// WorkerStatus is one shard worker's state in a snapshot: who it is,
// where it runs, and how stale its last heartbeat is. The shard layer
// fills these in via SetWorkersFn; telemetry only carries them.
type WorkerStatus struct {
	Name        string  `json:"name"`
	Host        string  `json:"host,omitempty"`
	Quarantined bool    `json:"quarantined"`
	Leases      int     `json:"leases"`
	Failures    int     `json:"failures"`
	LastBeatAge float64 `json:"last_beat_seconds"`
}

// SetWorkersFn installs a callback that materializes the worker fleet
// for snapshots (a sharded campaign's coordinator). Safe on nil.
func (p *Progress) SetWorkersFn(fn func() []WorkerStatus) {
	if p != nil && fn != nil {
		p.workersFn.Store(fn)
	}
}

// BoardStatus is one board's state in a snapshot.
type BoardStatus struct {
	Board int    `json:"board"`
	State string `json:"state"`
	Seq   int    `json:"seq"`
}

// ProgressSnapshot is the JSON shape served at /progress and goofi status,
// and rendered by goofi run's progress line.
type ProgressSnapshot struct {
	Campaign         string        `json:"campaign"`
	Phase            string        `json:"phase"`
	Done             int64         `json:"done"`
	Total            int64         `json:"total"`
	Retried          int64         `json:"retried"`
	InvalidRuns      int64         `json:"invalid_runs"`
	Forwarded        int64         `json:"forwarded"`
	ElapsedSeconds   float64       `json:"elapsed_seconds"`
	RecordsPerSecond float64       `json:"records_per_second"`
	ETASeconds       float64       `json:"eta_seconds"`
	Boards           []BoardStatus `json:"boards"`
	// Workers is the shard-worker fleet, present only for sharded
	// campaigns (populated through SetWorkersFn).
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// Snapshot materializes the current state. The rate is this run's records
// (not AddDone's) over its elapsed time, and the ETA extrapolates it
// linearly; both are 0 until this run has done an experiment.
// Safe on a nil receiver (returns the zero snapshot).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	campaign, phase, start, end := p.campaign, p.phase, p.start, p.end
	p.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	s := ProgressSnapshot{
		Campaign:    campaign,
		Phase:       phase,
		Done:        p.done.Load(),
		Total:       p.total.Load(),
		Retried:     p.retried.Load(),
		InvalidRuns: p.invalid.Load(),
		Forwarded:   p.forwarded.Load(),
	}
	if !start.IsZero() {
		s.ElapsedSeconds = end.Sub(start).Seconds()
	}
	if ran := s.Done - p.resumed.Load(); s.ElapsedSeconds > 0 && ran > 0 {
		s.RecordsPerSecond = float64(ran) / s.ElapsedSeconds
		if left := s.Total - s.Done; left > 0 {
			s.ETASeconds = float64(left) / s.RecordsPerSecond
		}
	}
	s.Boards = make([]BoardStatus, len(p.boards))
	for i, b := range p.boards {
		st := b.state.Load()
		if st < 0 || int(st) >= len(boardStateNames) {
			st = 0
		}
		s.Boards[i] = BoardStatus{Board: i, State: boardStateNames[st], Seq: int(b.seq.Load())}
	}
	if fn, ok := p.workersFn.Load().(func() []WorkerStatus); ok {
		s.Workers = fn()
	}
	return s
}
