package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// gatherer implements the gather window: a short, configurable hold that
// releases queued query requests in aligned batches instead of letting
// them trickle into the engine one by one. Released together, overlapping
// queries hit the engine's shared-work label memo while their twins' label
// builds are still in flight, so the singleflight there folds them into
// one build — the window does not itself merge work, it lines requests up
// so the memo can.
//
// The hold costs every request up to one window of added latency, which
// is why it is off by default in the library (Config.GatherWindow 0) and
// only enabled by gpssn-serve, where ~1ms is noise against engine
// latencies; see docs/SERVING.md §4a for tuning.
type gatherer struct {
	window time.Duration

	mu  sync.Mutex
	cur *batch

	batches  atomic.Int64 // windows that closed
	batched  atomic.Int64 // requests released by those windows
	maxBatch atomic.Int64 // largest single window
}

type batch struct {
	release chan struct{}
	size    int
}

func newGatherer(window time.Duration) *gatherer {
	return &gatherer{window: window}
}

// hold blocks until the current gather window closes (or ctx fires, so an
// abandoning client never waits on the batch). The first request after a
// release opens the next window and arms its timer; everyone arriving
// within the window joins it. A zero window is a no-op.
func (g *gatherer) hold(ctx context.Context) {
	if g == nil || g.window <= 0 {
		return
	}
	g.mu.Lock()
	b := g.cur
	if b == nil {
		b = &batch{release: make(chan struct{})}
		g.cur = b
		time.AfterFunc(g.window, func() { g.close(b) })
	}
	b.size++
	g.mu.Unlock()

	select {
	case <-b.release:
	case <-ctx.Done():
	}
}

// close releases a window's batch and records its size.
func (g *gatherer) close(b *batch) {
	g.mu.Lock()
	if g.cur == b {
		g.cur = nil
	}
	size := int64(b.size)
	g.mu.Unlock()

	g.batches.Add(1)
	g.batched.Add(size)
	for {
		old := g.maxBatch.Load()
		if size <= old || g.maxBatch.CompareAndSwap(old, size) {
			break
		}
	}
	close(b.release)
}
