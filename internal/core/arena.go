package core

import (
	"sync"
	"sync/atomic"

	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// refineArena is the per-worker grow-only scratch space of the refinement
// hot path. One arena belongs to exactly one goroutine at a time (a probe
// or a refinement worker); everything in it is recycled across the anchors
// that worker processes, so after the first few anchors the steady state
// allocates nothing per anchor and nothing per user evaluation:
//
//   - atts/out back the attachment lists and distance outputs of makeMOf
//     and the anchor order, rows the label-table row lists
//     (prepareBallLabels and the anchor order),
//   - lbl is the source attachment-label scratch the label kernel merges
//     from,
//   - kws is the ball keyword set,
//   - comps backs the companion search's result, which is also its queue,
//     and seen its reached set (companions),
//   - gs is the group search with its ordinals and rows (groups.go),
//   - hops/reached are u_q's bounded hop distances and the users that BFS
//     reached, users/cg the query's candidates and their friendship graph,
//     classes refinement's table of distinct balls (classes.go, the one
//     part the workers share, under its own mutex), and anchs is
//     refinement's anchor stream heap (anchorOrder): the query arena's.
//
// Arenas are engine-owned (arenaPool) and recycled across queries, so the
// steady-state per-query cost is a pool pop and push. The arena only
// changes where scratch memory lives, never what is computed.
type refineArena struct {
	atts  []roadnet.Attach
	out   []float64
	rows  []int32
	lbl   roadnet.HubLabel
	kws   TopicSet
	comps []anchorComp
	users []socialnet.UserID
	hops  []int32
	reach []socialnet.UserID
	seen  []uint64
	gs    groupSearch
	cg    candGraph
	anchs []anchorEntry

	classes ballClasses

	owner    *arenaPool
	retained int64 // bytes currently held by the slices above
}

// anchorComp is one eligible companion for an anchor: the user, their
// candGraph ordinal and their evaluated group cost M(u).
type anchorComp struct {
	u socialnet.UserID
	o int32
	m float64
}

// account records a capacity change of delta bytes against the pool's
// telemetry gauge.
func (a *refineArena) account(delta int64) {
	a.retained += delta
	a.owner.bytes.Add(delta)
}

// grow returns s resliced to length n, replacing its backing array (and
// accounting the extra size-byte elements) only when n exceeds every
// previous request. A reused buffer keeps its old contents.
func grow[T any](a *refineArena, s []T, n, size int) []T {
	if cap(s) < n {
		a.account(int64(n-cap(s)) * int64(size))
		return make([]T, n)
	}
	return s[:n]
}

// attachBuf returns a length-n attachment buffer.
func (a *refineArena) attachBuf(n int) []roadnet.Attach {
	a.atts = grow(a, a.atts, n, attachSize)
	return a.atts
}

// floatBuf returns a length-n float64 buffer.
func (a *refineArena) floatBuf(n int) []float64 {
	a.out = grow(a, a.out, n, 8)
	return a.out
}

// rowBuf returns a length-n row-index buffer.
func (a *refineArena) rowBuf(n int) []int32 {
	a.rows = grow(a, a.rows, n, 4)
	return a.rows
}

// label returns the reusable attachment-label scratch, emptied. The label
// is only valid until the next label() call on the same arena, which is
// exactly the lifetime an M(u) evaluation needs (one user at a time).
func (a *refineArena) label() *roadnet.HubLabel {
	a.lbl.Reset()
	return &a.lbl
}

// labelGrew re-measures the label scratch after a merge wrote into it
// (SeedLabel appends, so capacity can only grow).
func (a *refineArena) labelGrew(before int) {
	if d := cap(a.lbl.Hubs) - before; d > 0 {
		a.account(int64(d) * 12)
	}
}

// keywords returns the reusable ball keyword set, cleared, for a
// vocabulary of d topics.
func (a *refineArena) keywords(d int) TopicSet {
	if a.kws.Vocabulary() != d {
		a.account(int64((d+63)/64*8) - int64((a.kws.Vocabulary()+63)/64*8))
		a.kws = NewTopicSet(d)
		return a.kws
	}
	a.kws.Clear()
	return a.kws
}

// kept accounts the capacity s, grown by append from the arena buffer old,
// gained over it, and returns s for the caller to store back in old's
// place, so the capacity survives into the next use.
func kept[T any](a *refineArena, old, s []T, size int) []T {
	a.account(int64(cap(s)-cap(old)) * int64(size))
	return s
}

// hopsWithin returns src's hop distances within maxHops over g
// (socialnet.Unreachable beyond), computed into the arena's reusable hop
// array: the entries the previous call reached are reset first, so the
// array is allocated once per arena rather than once per query. The array
// is valid until the next call.
func (a *refineArena) hopsWithin(g *socialnet.Graph, src socialnet.UserID, maxHops int32) []int32 {
	for _, u := range a.reach {
		a.hops[u] = socialnet.Unreachable
	}
	if n := g.NumUsers(); cap(a.hops) < n {
		a.account(int64(n-cap(a.hops)) * 4)
		a.hops = make([]int32, n)
		for i := range a.hops {
			a.hops[i] = socialnet.Unreachable
		}
	}
	a.reach = kept(a, a.reach, g.HopsWithin(src, maxHops, a.hops, a.reach[:0]), userIDSize)
	return a.hops
}

// userBuf returns a length-n user-ID buffer.
func (a *refineArena) userBuf(n int) []socialnet.UserID {
	a.users = grow(a, a.users, n, userIDSize)
	return a.users
}

// Element sizes for the byte gauge. Attach is (EdgeID int32, T float64)
// padded to 16; UserID is an int32; anchorComp is (int32, int32, float64);
// anchorEntry is (float64, pointer, int32, bool) padded to 24.
const (
	attachSize      = 16
	userIDSize      = 4
	anchorCompSize  = 16
	anchorEntrySize = 24
)

// arenaPool recycles refineArenas across queries. A bounded free list
// rather than a sync.Pool: arenas hold multi-kilobyte grow-only buffers
// whose total must show up in the memory telemetry, and a sync.Pool's
// GC-driven emptying would silently decouple the gauge from reality.
// Dropped arenas (beyond maxFree) subtract their bytes before going to
// the garbage collector, so bytes always equals the live arena total.
type arenaPool struct {
	mu    sync.Mutex
	free  []*refineArena
	bytes atomic.Int64 // total retained bytes across all live arenas
}

// arenaMaxFree bounds the free list: enough for a full worker fan-out of
// one query plus a concurrent probe, small enough that a transient burst
// of wide queries does not pin its high-water scratch forever.
const arenaMaxFree = 32

// acquireArena returns a recycled or fresh arena.
func (e *Engine) acquireArena() *refineArena {
	p := &e.arenas
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	return &refineArena{owner: p}
}

// releaseArena returns an arena to the free list.
func (e *Engine) releaseArena(a *refineArena) {
	p := &e.arenas
	p.mu.Lock()
	if len(p.free) < arenaMaxFree {
		p.free = append(p.free, a)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.bytes.Add(-a.retained)
}

// ArenaBytes reports the total bytes retained by the engine's refinement
// arenas (free or checked out), for the memory telemetry.
func (e *Engine) ArenaBytes() int64 {
	return e.arenas.bytes.Load()
}

// MemoryStats is a point-in-time snapshot of where the engine's off-heap-
// invisible memory lives: the structures a heap profile shows only as
// anonymous slices. Surfaced through the facade and /statsz.
type MemoryStats struct {
	// OracleBytes is the resident size of the attached distance oracle's
	// preprocessed structures (CH adjacency, hub-label store). 0 when no
	// oracle is attached or it does not report (plain Dijkstra).
	OracleBytes int64
	// ArenaBytes is the total retained by the refinement arenas.
	ArenaBytes int64
	// POILabelBytes is the resident size of the POI label table (0 without
	// a label oracle, and after a road mutation released the table).
	POILabelBytes int64
}

// MemoryStats snapshots the engine's memory accounting. Safe for
// concurrent use with queries.
func (e *Engine) MemoryStats() MemoryStats {
	ms := MemoryStats{ArenaBytes: e.ArenaBytes(), POILabelBytes: e.POILabels().MemoryBytes()}
	if o, ok := e.DS.Road.Oracle().(interface{ MemoryBytes() int64 }); ok {
		ms.OracleBytes = o.MemoryBytes()
	}
	return ms
}
