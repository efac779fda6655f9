package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// resultLess is the canonical total order on results: cost first, then
// anchor id, then the lexicographically smallest sorted user group (r.S is
// always sorted before reaching the keeper). Having no arrival-order
// component is what makes refinement's answers independent of the order
// in which workers report them.
func resultLess(a, b Result) bool {
	if a.MaxDist != b.MaxDist {
		return a.MaxDist < b.MaxDist
	}
	if a.Anchor != b.Anchor {
		return a.Anchor < b.Anchor
	}
	return lexLessUsers(a.S, b.S)
}

// resultKeeper holds the k canonically-best results so far, in resultLess
// order, with distinct anchors. Not safe for concurrent use on its own;
// refinement workers go through sharedKeeper.
type resultKeeper struct {
	k     int
	items []Result
}

// bound returns the current pruning bound: the k-th best cost, or +Inf
// while fewer than k results are known.
func (rk *resultKeeper) bound() float64 {
	if len(rk.items) < rk.k {
		return math.Inf(1)
	}
	return rk.items[len(rk.items)-1].MaxDist
}

// add inserts r, deduplicating by anchor (keeping the canonically better
// result) and trimming to k.
func (rk *resultKeeper) add(r Result) {
	for i := range rk.items {
		if rk.items[i].Anchor == r.Anchor {
			if resultLess(r, rk.items[i]) {
				rk.items = append(rk.items[:i], rk.items[i+1:]...)
				break
			}
			return
		}
	}
	pos := len(rk.items)
	for pos > 0 && resultLess(r, rk.items[pos-1]) {
		pos--
	}
	rk.items = append(rk.items, Result{})
	copy(rk.items[pos+1:], rk.items[pos:])
	rk.items[pos] = r
	if len(rk.items) > rk.k {
		rk.items = rk.items[:rk.k]
	}
}

// sharedKeeper is the concurrent wrapper refinement workers share: the
// result list is mutex-guarded, and the pruning bound is additionally
// published through an atomic so the hot pruning checks never contend on
// the mutex. The bound is monotone non-increasing, so a stale read can
// only under-prune (wasted work), never over-prune (a lost answer) — the
// soundness argument in docs/CONCURRENCY.md.
type sharedKeeper struct {
	mu    sync.Mutex
	rk    resultKeeper
	bound atomic.Uint64 // math.Float64bits of the k-th best cost
}

func newSharedKeeper(k int) *sharedKeeper {
	sk := &sharedKeeper{rk: resultKeeper{k: k}}
	sk.bound.Store(math.Float64bits(math.Inf(1)))
	return sk
}

// Bound returns the published pruning bound. Lock-free.
func (sk *sharedKeeper) Bound() float64 {
	return math.Float64frombits(sk.bound.Load())
}

// add inserts a result and tightens the published bound via a
// compare-and-swap loop that only ever lowers it, so racing publishers
// cannot move the bound backwards.
func (sk *sharedKeeper) add(r Result) {
	sk.mu.Lock()
	sk.rk.add(r)
	b := sk.rk.bound()
	sk.mu.Unlock()
	for {
		old := sk.bound.Load()
		if math.Float64frombits(old) <= b {
			return
		}
		if sk.bound.CompareAndSwap(old, math.Float64bits(b)) {
			return
		}
	}
}
