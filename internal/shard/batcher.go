package shard

// The ingest batcher: worker reports fan in through a bounded queue to
// a single writer goroutine, which is the only thing that touches the
// coordinator's store. The bounded queue is the backpressure: when the
// merge falls behind, Report handlers block in submit, the HTTP responses
// stall, and the workers slow down — no unbounded buffering, no writer
// contention on the WAL.

import (
	"fmt"
	"sync"

	"goofi/internal/campaign"
)

type batcher struct {
	store *campaign.Store
	ch    chan []campaign.Row
	flush chan chan error
	quit  chan struct{} // closed by Close: writer drains and exits
	done  chan struct{} // closed when the writer has exited

	stop sync.Once

	mu  sync.Mutex
	err error // first write error; poisons subsequent submits
}

func newBatcher(store *campaign.Store) *batcher {
	b := &batcher{
		store: store,
		ch:    make(chan []campaign.Row, ingestQueueDepth),
		flush: make(chan chan error),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go b.writer()
	return b
}

func (b *batcher) writer() {
	defer close(b.done)
	for {
		select {
		case rows := <-b.ch:
			b.write(rows)
		case ack := <-b.flush:
			// Drain everything queued ahead of the flush request, then
			// raise a durability barrier so the accepted sequences
			// survive a coordinator crash.
			b.drain()
			ack <- b.barrier()
		case <-b.quit:
			b.drain()
			return
		}
	}
}

func (b *batcher) drain() {
	for {
		select {
		case rows := <-b.ch:
			b.write(rows)
		default:
			return
		}
	}
}

func (b *batcher) write(rows []campaign.Row) {
	if len(rows) == 0 || b.firstErr() != nil {
		return
	}
	if err := b.store.InsertRows(rows); err != nil {
		b.setErr(err)
	}
}

func (b *batcher) barrier() error {
	if err := b.firstErr(); err != nil {
		return err
	}
	if err := b.store.DB().Barrier(); err != nil {
		b.setErr(err)
	}
	return b.firstErr()
}

func (b *batcher) setErr(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *batcher) firstErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// submit queues a batch for the writer, blocking when the queue is full.
// This block is the protocol's backpressure point.
func (b *batcher) submit(rows []campaign.Row) error {
	if err := b.firstErr(); err != nil {
		return err
	}
	select {
	case b.ch <- rows:
		return nil
	case <-b.done:
		return fmt.Errorf("shard: ingest batcher closed")
	}
}

// Flush waits until everything submitted so far is durable.
func (b *batcher) Flush() error {
	ack := make(chan error, 1)
	select {
	case b.flush <- ack:
		return <-ack
	case <-b.done:
		return b.firstErr()
	}
}

// Close drains what is queued, raises a final barrier, and stops the
// writer. Safe to call more than once and concurrently with submit.
func (b *batcher) Close() error {
	b.stop.Do(func() { close(b.quit) })
	<-b.done
	return b.barrier()
}
