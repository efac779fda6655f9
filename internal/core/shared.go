package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// The shared-work layer memoizes the two expensive building blocks that
// concurrent queries recompute over and over under load: anchor balls
// (ballAround + the ball's prepared target labels) and, under a label
// oracle, per-user attachment hub labels (the "sweep" memo; other oracles
// price users with bounded ball searches and keep no per-user state). The
// facade's singleflight only coalesces bit-identical requests; this layer
// shares work between *different* queries that touch the same anchor or
// user.
//
// Ownership and correctness rules (docs/CONCURRENCY.md §6):
//
//   - The memo lives on the Engine, so Compact (which builds a fresh
//     Engine) starts from an empty memo for the rebuilt dataset.
//   - Entries are built under a fresh metering Checkpoint that never
//     trips, so a memo entry is always canonical — a budget- or
//     cancel-tripped query can never poison the memo with a degenerate
//     ball. The build cost is recorded and charged to every query that
//     consumes the entry (Checkpoint.Spend), so budget exhaustion still
//     reflects logical work consumed.
//   - Ball slices are handed out copy-on-read: refinement sorts result R
//     sets in place, so sharing the backing array across queries would
//     race. Target-label sets and attachment labels are read-only by
//     contract and are shared directly.
//   - Builds are singleflighted: the first query to miss becomes the
//     leader and builds outside the memo lock; waiters block on the
//     entry's done channel. A leader that panics unpublishes the entry
//     and closes the channel, so waiters fall back to a solo compute and
//     the panic surfaces through the leader's own query panic boundary.
//   - Invalidation is per update kind, mirroring the answer cache's
//     discipline but more selective: AddPOI evicts exactly the balls the
//     new POI could join (Euclidean prefilter — sound because road
//     distance never undercuts Euclidean distance, the same argument
//     EuclidBall and deltaBallMembers rely on) and bumps the road
//     version. AddUser/AddFriendship don't touch the memo at all: balls
//     are POI-only, and a user's label depends only on the road topology
//     and their home attachment, neither of which those updates can
//     change. AddRoadEdge is the other extreme — a full reset
//     (noteRoadChange), because every memoized label and ball bakes the
//     old topology in. AddRoadVertex sits in the middle: an isolated
//     vertex changes no distance, so it touches nothing.

// Capacity bounds for the shared memo. Balls are LRU-evicted; user label
// entries are reject-on-full like the per-query vertexDistCache (the
// per-query path still works when the memo is full, so occupancy never
// affects answers). Labels are tens of entries each, so the entry cap is
// the only bound; their bytes are metered, not capped.
const (
	sharedBallMaxEntries = 4096
	sharedUserMaxEntries = 16384
)

type ballKey struct {
	anchor model.POIID
	r      float64
}

// ballEntry is one memoized anchor ball. done is closed when the build
// finishes (ok true) or is abandoned (ok false); every other field is
// written once by the leader before the close and read-only afterwards.
type ballEntry struct {
	done chan struct{}
	elem *list.Element // LRU position; guarded by sharedWork.mu

	ball []model.POIID
	tl   *roadnet.TargetLabels // nil under non-label oracles
	loc  geo.Point             // anchor location, for selective eviction
	work int64                 // metered build cost, charged on every hit
	ok   bool
}

// userEntry is one memoized attachment hub label. Same
// write-once-then-close discipline as ballEntry.
type userEntry struct {
	done  chan struct{}
	label *roadnet.HubLabel // owned by the memo, never pooled
	ok    bool
}

type sharedWork struct {
	mu      sync.Mutex
	version uint64 // road-data version; bumped by every AddPOI

	balls   map[ballKey]*ballEntry
	ballLRU *list.List // front = most recently used; values are ballKey

	users     map[socialnet.UserID]*userEntry
	userBytes int64 // Σ labelBytes over published labels

	ballHits, ballMisses, ballEvict   atomic.Int64
	sweepHits, sweepMisses, sweepFull atomic.Int64
}

func newSharedWork() *sharedWork {
	return &sharedWork{
		balls:   map[ballKey]*ballEntry{},
		ballLRU: list.New(),
		users:   map[socialnet.UserID]*userEntry{},
	}
}

// SharedWorkStats is a point-in-time snapshot of the memo counters,
// surfaced through the facade and /statsz.
type SharedWorkStats struct {
	Enabled     bool
	RoadVersion uint64

	BallHits      int64
	BallMisses    int64
	BallEvictions int64
	BallEntries   int

	SweepHits     int64
	SweepMisses   int64
	SweepRejected int64
	SweepEntries  int
	SweepBytes    int64
}

// SharedWorkStats snapshots the shared-work memo counters. Zero-valued
// (Enabled false) when the layer is disabled.
func (e *Engine) SharedWorkStats() SharedWorkStats {
	sw := e.shared
	if sw == nil {
		return SharedWorkStats{}
	}
	st := SharedWorkStats{
		Enabled:       true,
		BallHits:      sw.ballHits.Load(),
		BallMisses:    sw.ballMisses.Load(),
		BallEvictions: sw.ballEvict.Load(),
		SweepHits:     sw.sweepHits.Load(),
		SweepMisses:   sw.sweepMisses.Load(),
		SweepRejected: sw.sweepFull.Load(),
	}
	sw.mu.Lock()
	st.RoadVersion = sw.version
	st.BallEntries = len(sw.balls)
	st.SweepEntries = len(sw.users)
	st.SweepBytes = sw.userBytes
	sw.mu.Unlock()
	return st
}

// anchorBall returns the ball around anchor (copy-on-read: the caller owns
// the returned slice) plus the ball's prepared target labels when a label
// oracle is attached (shared, read-only). With the memo disabled it is a
// plain ballAround and the labels are nil — callers prepare their own,
// preserving the pre-memo behavior exactly.
//
// Checkpoint discipline matches solo execution: a stopped checkpoint
// yields the degenerate {anchor} ball (solo ballAround degenerates the
// same way when every checked distance comes back +Inf), and a memo hit
// charges the entry's metered build cost, tripping the budget at the same
// logical work a solo build would have consumed.
func (e *Engine) anchorBall(anchor model.POIID, radius float64, ck *roadnet.Checkpoint, ar *refineArena) ([]model.POIID, *roadnet.TargetLabels) {
	sw := e.shared
	if sw == nil {
		return e.ballAround(anchor, radius, ck), nil
	}
	if ck.Stopped() {
		return []model.POIID{anchor}, nil
	}
	key := ballKey{anchor: anchor, r: radius}

	sw.mu.Lock()
	ent, ok := sw.balls[key]
	if ok {
		sw.ballLRU.MoveToFront(ent.elem)
		sw.mu.Unlock()
		<-ent.done
		if ent.ok {
			sw.ballHits.Add(1)
			if ck.Spend(int(ent.work)) {
				return []model.POIID{anchor}, nil
			}
			return append([]model.POIID(nil), ent.ball...), ent.tl
		}
		// The leader abandoned the build (panic unwound through it);
		// compute solo rather than racing to rebuild.
		return e.ballAround(anchor, radius, ck), nil
	}
	ent = &ballEntry{done: make(chan struct{}), loc: e.DS.POIs[anchor].Loc}
	ent.elem = sw.ballLRU.PushFront(key)
	sw.balls[key] = ent
	for len(sw.balls) > sharedBallMaxEntries {
		oldest := sw.ballLRU.Back()
		sw.removeBallLocked(oldest.Value.(ballKey))
		sw.ballEvict.Add(1)
	}
	sw.mu.Unlock()
	sw.ballMisses.Add(1)

	completed := false
	defer func() {
		if !completed {
			sw.mu.Lock()
			if sw.balls[key] == ent {
				sw.removeBallLocked(key)
			}
			sw.mu.Unlock()
			close(ent.done)
		}
	}()
	mck := roadnet.NewCheckpoint(nil, nil, 0) // metering only: never trips
	ball := e.ballAround(anchor, radius, mck)
	ent.ball = ball
	ent.tl = e.prepareBallLabels(ball, ar)
	ent.work = mck.Spent()
	ent.ok = true
	completed = true
	close(ent.done)

	if ck.Spend(int(ent.work)) {
		return []model.POIID{anchor}, nil
	}
	return append([]model.POIID(nil), ball...), ent.tl
}

// prepareBallLabels flattens the ball members' label rows into the ball's
// merge-ready target set; nil under non-label oracles (the seam makeMOf
// uses to pick its strategy).
func (e *Engine) prepareBallLabels(ball []model.POIID, ar *refineArena) *roadnet.TargetLabels {
	t, rows := e.poiRows(ball, ar)
	if t == nil {
		return nil
	}
	return t.Flatten(rows)
}

// removeBallLocked unlinks a ball entry; callers hold sw.mu. In-flight
// entries may be evicted too — the leader's completion check compares
// pointers, and waiters already holding the entry still see its result.
func (sw *sharedWork) removeBallLocked(key ballKey) {
	if ent, ok := sw.balls[key]; ok {
		sw.ballLRU.Remove(ent.elem)
		delete(sw.balls, key)
	}
}

// noteAddPOI is the AddPOI invalidation hook, called with the engine lock
// held exclusively (no query is in flight). It evicts exactly the balls
// the new POI could have joined: road distance never undercuts Euclidean
// distance, so a POI Euclidean-farther than r from an anchor can never be
// inside that anchor's radius-r ball. Every AddPOI bumps the road-data
// version so tests (and operators) can observe that the memo noticed.
func (sw *sharedWork) noteAddPOI(loc geo.Point) {
	if sw == nil {
		return
	}
	sw.mu.Lock()
	sw.version++
	for key, ent := range sw.balls {
		if ent.loc.Dist(loc) <= key.r {
			sw.removeBallLocked(key)
			sw.ballEvict.Add(1)
		}
	}
	sw.mu.Unlock()
}

// noteRoadChange is the road-topology invalidation hook (AddRoadEdge),
// called with the engine lock held exclusively. Unlike noteAddPOI's
// selective eviction this is a full reset: memoized labels and balls bake
// in the old distances and reachability, so after a topology change stale
// entries would be *wrong* — a label missing a new shortcut, a ball
// missing a now-reachable POI — not merely conservative.
// In-flight leaders are unharmed: eviction only unlinks map entries, and
// waiters already holding an entry pointer still see a result computed
// for the pre-change topology their query no longer uses (they were
// serialized before this update by the facade's write lock).
func (sw *sharedWork) noteRoadChange() {
	if sw == nil {
		return
	}
	sw.mu.Lock()
	sw.version++
	for key := range sw.balls {
		sw.removeBallLocked(key)
		sw.ballEvict.Add(1)
	}
	sw.users = map[socialnet.UserID]*userEntry{}
	sw.userBytes = 0
	sw.mu.Unlock()
}

// sharedUserLabel returns u's attachment hub label through the memo,
// singleflight-building it on a miss (outside the memo lock) into an
// owned copy charged its labelBytes. The label is owned by the memo
// (never returned to the pool). ok false means the caller must run the
// per-query path, exactly as if the memo were disabled: memo disabled or
// at capacity, no label oracle, or a build abandoned by a panic (which
// unpublishes the entry).
func (e *Engine) sharedUserLabel(u socialnet.UserID) (*roadnet.HubLabel, bool) {
	sw := e.shared
	if sw == nil {
		return nil, false
	}
	sw.mu.Lock()
	ent, ok := sw.users[u]
	if ok {
		sw.mu.Unlock()
		<-ent.done
		if !ent.ok {
			return nil, false
		}
		sw.sweepHits.Add(1)
		return ent.label, true
	}
	if len(sw.users) >= sharedUserMaxEntries {
		sw.mu.Unlock()
		sw.sweepFull.Add(1)
		return nil, false
	}
	ent = &userEntry{done: make(chan struct{})}
	sw.users[u] = ent
	sw.mu.Unlock()
	sw.sweepMisses.Add(1)

	defer func() {
		if !ent.ok {
			sw.mu.Lock()
			if sw.users[u] == ent {
				delete(sw.users, u)
			}
			sw.mu.Unlock()
		}
		close(ent.done)
	}()
	l := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(l)
	if !e.DS.Road.AttachLabel(e.DS.Users[u].At, l) {
		return nil, false
	}
	ent.label = copyLabel(l)
	ent.ok = true
	sw.mu.Lock()
	if sw.users[u] == ent {
		sw.userBytes += labelBytes(ent.label)
	}
	sw.mu.Unlock()
	return ent.label, true
}
