package roadnet

import "sync/atomic"

// Checkpoint is the cooperative cancellation and work-budget hook threaded
// through the long-running searches (bounded Dijkstra, the CH sweeps, the
// HL label-merge kernel). Searches report consumed work units — settled
// vertices for graph searches, walked label entries for the label kernel —
// in batches of checkStride, and abort as soon as the checkpoint trips:
// either because the cancellation signal fired or because the work budget
// ran out. A tripped checkpoint is sticky, so once a query's budget is
// exhausted every later search on the same checkpoint returns immediately.
//
// All methods are safe for concurrent use (refinement workers share one
// checkpoint per query) and nil-safe: a nil *Checkpoint never trips and
// costs one predictable branch per call, which is what keeps the
// no-context/no-budget fast path bit-identical to the unchecked engine.
type Checkpoint struct {
	done  <-chan struct{} // cancellation signal; nil = not cancellable
	cause func() error    // cancellation reason, read only after done fires

	limited   bool
	remaining atomic.Int64 // work units left before the budget trips
	spent     atomic.Int64 // total work units consumed (observability)
	ticks     atomic.Uint32
	state     atomic.Uint32 // ckRunning / ckCancelled / ckBudget, first trip wins
}

const (
	ckRunning uint32 = iota
	ckCancelled
	ckBudget
)

// checkStride is how many work units searches accumulate locally between
// Spend calls: large enough that the atomics vanish in the search cost,
// small enough that a cancel is observed within microseconds.
const checkStride = 256

// NewCheckpoint builds a checkpoint. done is the cancellation signal
// (typically ctx.Done(); nil disables cancellation), cause the error to
// report once it fires (typically wrapping ctx.Err()), and maxWork the
// work-unit budget (0 = unlimited).
func NewCheckpoint(done <-chan struct{}, cause func() error, maxWork int64) *Checkpoint {
	c := &Checkpoint{done: done, cause: cause, limited: maxWork > 0}
	c.remaining.Store(maxWork)
	return c
}

// trip moves the checkpoint into a terminal state; the first cause wins.
func (c *Checkpoint) trip(state uint32) {
	c.state.CompareAndSwap(ckRunning, state)
}

// Spend consumes n work units and reports whether the caller must abort its
// search. It also polls the cancellation signal, so a search that reports
// work regularly needs no separate Cancelled calls.
func (c *Checkpoint) Spend(n int) bool {
	if c == nil {
		return false
	}
	if c.state.Load() != ckRunning {
		return true
	}
	c.spent.Add(int64(n))
	if c.limited && c.remaining.Add(-int64(n)) < 0 {
		c.trip(ckBudget)
		return true
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.trip(ckCancelled)
			return true
		default:
		}
	}
	return false
}

// Cancelled reports whether the cancellation signal has fired. It consumes
// no budget and amortizes the channel poll over ticks, so it is cheap
// enough for per-candidate pruning loops. A budget trip does not make
// Cancelled true — budget exhaustion degrades, it does not error.
func (c *Checkpoint) Cancelled() bool {
	if c == nil {
		return false
	}
	switch c.state.Load() {
	case ckCancelled:
		return true
	case ckBudget:
		return false
	}
	if c.done == nil {
		return false
	}
	if c.ticks.Add(1)%64 != 0 {
		return false
	}
	select {
	case <-c.done:
		c.trip(ckCancelled)
		return true
	default:
		return false
	}
}

// Stopped reports whether the checkpoint has tripped for any reason.
// Searches consult it on entry so a sticky trip short-circuits all later
// work on the same query.
func (c *Checkpoint) Stopped() bool {
	return c != nil && c.state.Load() != ckRunning
}

// Exhausted reports whether the trip was caused by the work budget.
func (c *Checkpoint) Exhausted() bool {
	return c != nil && c.state.Load() == ckBudget
}

// CancelErr returns the cancellation cause once the checkpoint tripped on
// cancellation, and nil otherwise (still running, or budget-tripped).
func (c *Checkpoint) CancelErr() error {
	if c == nil || c.state.Load() != ckCancelled {
		return nil
	}
	if c.cause == nil {
		return nil
	}
	return c.cause()
}

// Spent returns the total work units consumed so far.
func (c *Checkpoint) Spent() int64 {
	if c == nil {
		return 0
	}
	return c.spent.Load()
}
