package core

import (
	"slices"
	"sync"

	"gpssn/internal/model"
	"gpssn/internal/socialnet"
)

// classKind is what refining one distinct ball produced.
type classKind uint8

const (
	classInFlight    classKind = iota // its owner is still refining the ball
	classThetaFailed                  // u_q fails the ball's θ-test
	classReachFailed                  // fewer than τ-1 companions under the bound
	classDead                         // M(u_q) over the bound, or no group under it
	classFound                        // the ball's canonical best group and its cost
)

// classOutcome is a recorded class outcome as replay sees it. s is the
// found group, valid only during the replay call.
type classOutcome struct {
	kind classKind
	s    []socialnet.UserID
	cost float64
}

// ballClass is one distinct ball of a query: the anchors whose road balls
// hold the same POI set. Its sorted ball is ids[off:off+n] and a found
// group users[s:s+ns] of the table; pending heads the list (in pend) of
// the anchors waiting on an in-flight class, -1 when none.
type ballClass struct {
	hash    uint64
	cost    float64
	off, n  int32
	s, ns   int32
	pending int32
	kind    classKind
}

// pendingAnchor is an anchor handed to the owner of its in-flight class:
// its id, its own ball (the same set) and the next pending anchor.
type pendingAnchor struct {
	ball []model.POIID
	id   model.POIID
	next int32
}

// ballClasses is refinement's per-query class table (one refinement per
// distinct ball): an open-addressed hash table keyed by the sorted ball —
// its hash, then an equality check against the stored copy — over slabs
// that live in the query arena and are emptied after each query. Nothing
// in it outlives the query. Workers share it under mu; the first anchor of
// a ball owns its class and records the outcome, every later one replays
// it (claim, record, drop). The exactness argument is in
// docs/ALGORITHMS.md, the locking in docs/CONCURRENCY.md.
type ballClasses struct {
	mu    sync.Mutex
	slots []int32 // class index + 1; 0 is empty
	cls   []ballClass
	ids   []model.POIID
	users []socialnet.UserID
	pend  []pendingAnchor
}

// Element sizes for the arena's byte gauge.
const (
	ballClassSize     = 40
	pendingAnchorSize = 32
)

// minClassSlots is the table's starting size; it doubles at half load.
const minClassSlots = 64

// reset empties the table for a new query.
func (t *ballClasses) reset(a *refineArena) {
	if len(t.slots) == 0 {
		t.slots = grow(a, t.slots, minClassSlots, 4)
	}
	clear(t.slots)
	t.cls, t.ids, t.users = t.cls[:0], t.ids[:0], t.users[:0]
}

// release drops the pending anchors' balls, so the arena pins no result
// memory between queries.
func (t *ballClasses) release() {
	clear(t.pend)
	t.pend = t.pend[:0]
}

// ballHash hashes a sorted ball (FNV-1a over the ids, then a 64-bit
// finalizer so the low bits the table indexes by are mixed).
func ballHash(ball []model.POIID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ball {
		h ^= uint64(uint32(id))
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// claim looks up the sorted ball of anchor id. A ball not yet in the
// table becomes a new in-flight class owned by the caller: claim returns
// its index and true, and the caller must record or drop it. Otherwise
// the anchor repeats a ball and claim returns false: for a recorded class
// it calls replay with the outcome, for one in flight it appends the
// anchor to the class's pending list, for the owner to replay when it
// records. replay runs under the table's mutex.
func (t *ballClasses) claim(a *refineArena, ball []model.POIID, id model.POIID, replay func(classOutcome, model.POIID, []model.POIID)) (int32, bool) {
	h := ballHash(ball)
	t.mu.Lock()
	defer t.mu.Unlock()
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		c := t.slots[i] - 1
		cl := &t.cls[c]
		if cl.hash != h || !slices.Equal(t.ids[cl.off:cl.off+cl.n], ball) {
			continue
		}
		if cl.kind == classInFlight {
			t.pend = kept(a, t.pend, append(t.pend, pendingAnchor{ball: ball, id: id, next: cl.pending}), pendingAnchorSize)
			cl.pending = int32(len(t.pend) - 1)
		} else {
			replay(t.outcome(cl), id, ball)
		}
		return c, false
	}
	c := int32(len(t.cls))
	t.cls = kept(a, t.cls, append(t.cls, ballClass{hash: h, off: int32(len(t.ids)), n: int32(len(ball)), pending: -1}), ballClassSize)
	t.ids = kept(a, t.ids, append(t.ids, ball...), 4)
	t.slots[i] = c + 1
	if 2*len(t.cls) > len(t.slots) {
		t.rehash(a, 2*len(t.slots))
	}
	return c, true
}

// record stores class c's outcome (s is the found group, nil otherwise)
// and replays it for every anchor pending on the class.
func (t *ballClasses) record(a *refineArena, c int32, kind classKind, s []socialnet.UserID, cost float64, replay func(classOutcome, model.POIID, []model.POIID)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cl := &t.cls[c]
	cl.kind, cl.cost = kind, cost
	cl.s, cl.ns = int32(len(t.users)), int32(len(s))
	t.users = kept(a, t.users, append(t.users, s...), userIDSize)
	o := t.outcome(cl)
	for p := cl.pending; p >= 0; p = t.pend[p].next {
		replay(o, t.pend[p].id, t.pend[p].ball)
	}
	cl.pending = -1
}

// drop abandons class c after its owner's checkpoint tripped: nothing is
// recorded and its pending anchors contribute nothing. The class stays in
// flight; the query errors or is truncated anyway.
func (t *ballClasses) drop(c int32) {
	t.mu.Lock()
	t.cls[c].pending = -1
	t.mu.Unlock()
}

// outcome is cl's recorded outcome, its group a view of the users slab.
func (t *ballClasses) outcome(cl *ballClass) classOutcome {
	return classOutcome{kind: cl.kind, s: t.users[cl.s : cl.s+cl.ns], cost: cl.cost}
}

// rehash rebuilds the slots at size n (a power of two) from the stored
// hashes.
func (t *ballClasses) rehash(a *refineArena, n int) {
	t.slots = grow(a, t.slots, n, 4)
	clear(t.slots)
	mask := uint64(n - 1)
	for c := range t.cls {
		i := t.cls[c].hash & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(c) + 1
	}
}
