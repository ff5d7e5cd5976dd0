package peer

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
)

// runtime is the peer's concurrent delivery engine: a bounded frame queue
// feeding a fixed pool of workers, each running plan steps through the
// shared (stateless) mqp.Processor.
//
// Admission control is reject-not-wait: when the queue is full, the plan is
// immediately answered with a partial result annotated "admission" instead
// of blocking the sender or growing an unbounded backlog. Overload degrades
// into explicit partial answers — the same contract routing exhaustion
// already has — so the system-wide invariant "every submitted plan ends as
// a result, a partial, or a stuck record" survives load shedding.
type runtime struct {
	p      *Peer
	queue  chan *simnet.Message
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// rejected counts admission-control rejections (not shutdown drains).
	rejected atomic.Int64
	// closeOnce makes Close idempotent.
	closeOnce sync.Once
}

func newRuntime(p *Peer, workers, depth int) *runtime {
	ctx, cancel := context.WithCancel(context.Background())
	rt := &runtime{
		p:      p,
		queue:  make(chan *simnet.Message, depth),
		ctx:    ctx,
		cancel: cancel,
	}
	rt.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go rt.worker()
	}
	return rt
}

// enqueue admits a delivered plan to the frame queue, or sheds it.
func (rt *runtime) enqueue(msg *simnet.Message) error {
	if rt.ctx.Err() != nil {
		return rt.p.rejectMQP(msg, "shutdown")
	}
	select {
	case rt.queue <- msg:
		// A close that ran between the check above and the push has already
		// drained the queue; nothing would ever take this plan out again.
		if rt.ctx.Err() != nil {
			rt.drain()
		}
		return nil
	default:
		rt.rejected.Add(1)
		return rt.p.rejectMQP(msg, "admission")
	}
}

// worker runs queued plan steps, each to completion, until close.
func (rt *runtime) worker() {
	defer rt.wg.Done()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case msg := <-rt.queue:
			_ = rt.p.processMQP(msg) // which records what it strands
		}
	}
}

// close stops admission, waits for in-flight steps, then rejects whatever
// is still queued so no plan vanishes.
func (rt *runtime) close() {
	rt.closeOnce.Do(func() {
		rt.cancel()
		rt.wg.Wait()
		rt.drain()
	})
}

// drain rejects every queued plan. It runs once the context is canceled, from
// close and from any enqueue whose push lost the race with it.
func (rt *runtime) drain() {
	for {
		select {
		case msg := <-rt.queue:
			rt.p.rejectMQP(msg, "shutdown")
		default:
			return
		}
	}
}
