package core

import (
	"sync"
	"sync/atomic"

	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// The shared-work layer memoizes, under a label oracle, per-user
// attachment hub labels (the "sweep" memo; other oracles price users with
// bounded ball searches and keep no per-user state). Concurrent queries
// that evaluate the same user share one label instead of each merging it
// from the oracle; the facade's singleflight only coalesces bit-identical
// requests, this layer shares work between *different* queries that touch
// the same user.
//
// Ownership and correctness rules (docs/CONCURRENCY.md §6):
//
//   - The memo lives on the Engine, so Compact (which builds a fresh
//     Engine) starts from an empty memo for the rebuilt dataset.
//   - Labels are read-only by contract and are shared directly; a memo
//     label is an owned copy, never a pooled scratch label.
//   - Builds are singleflighted: the first query to miss becomes the
//     leader and builds outside the memo lock; waiters block on the
//     entry's done channel. A leader that panics unpublishes the entry
//     and closes the channel, so waiters fall back to a solo compute and
//     the panic surfaces through the leader's own query panic boundary.
//   - A user's label depends only on the road topology and their home
//     attachment, so AddPOI, AddUser, AddFriendship and AddRoadVertex
//     leave the memo alone. AddRoadEdge empties it (noteRoadChange):
//     every memoized label bakes the old distances in.

// sharedUserMaxEntries caps the label memo. Entries are reject-on-full
// (the per-query path still works when the memo is full, so occupancy
// never affects answers). Labels are tens of entries each, so the entry
// cap is the only bound; their bytes are metered, not capped.
const sharedUserMaxEntries = 16384

// userEntry is one memoized attachment hub label. done is closed when the
// build finishes (ok true) or is abandoned (ok false); label and ok are
// written once by the leader before the close and read-only afterwards.
type userEntry struct {
	done  chan struct{}
	label *roadnet.HubLabel // owned by the memo, never pooled
	ok    bool
}

type sharedWork struct {
	mu        sync.Mutex
	users     map[socialnet.UserID]*userEntry
	userBytes int64 // Σ labelBytes over published labels

	sweepHits, sweepMisses, sweepFull atomic.Int64
}

func newSharedWork() *sharedWork {
	return &sharedWork{users: map[socialnet.UserID]*userEntry{}}
}

// SharedWorkStats is a point-in-time snapshot of the memo counters,
// surfaced through the facade and /statsz.
type SharedWorkStats struct {
	Enabled bool

	// Deprecated: always 0; the ball memo was removed (the benchmark harness still reads this field)
	BallHits int64
	// Deprecated: always 0; the ball memo was removed (the benchmark harness still reads this field)
	BallMisses int64
	// Deprecated: always 0; the ball memo was removed (the benchmark harness still reads this field)
	BallEvictions int64

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
		SweepHits:     sw.sweepHits.Load(),
		SweepMisses:   sw.sweepMisses.Load(),
		SweepRejected: sw.sweepFull.Load(),
	}
	sw.mu.Lock()
	st.SweepEntries = len(sw.users)
	st.SweepBytes = sw.userBytes
	sw.mu.Unlock()
	return st
}

// noteRoadChange is the road-topology invalidation hook (AddRoadEdge),
// called with the engine lock held exclusively: memoized labels bake in
// the old distances, so after a topology change they would be *wrong* —
// missing a new shortcut — not merely conservative. In-flight leaders are
// unharmed: the reset only unlinks map entries, and waiters already
// holding an entry pointer still see a label computed for the pre-change
// topology their query no longer uses (they were serialized before this
// update by the facade's write lock).
func (sw *sharedWork) noteRoadChange() {
	if sw == nil {
		return
	}
	sw.mu.Lock()
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

// copyLabel returns an owned copy of l with capacity equal to length, so
// labelBytes is what the copy keeps resident.
func copyLabel(l *roadnet.HubLabel) *roadnet.HubLabel {
	c := &roadnet.HubLabel{Hubs: make([]int32, l.Len()), Dist: make([]float64, l.Len())}
	copy(c.Hubs, l.Hubs)
	copy(c.Dist, l.Dist)
	return c
}

// labelBytes is a label's entry payload: a 4-byte hub and an 8-byte
// distance per entry.
func labelBytes(l *roadnet.HubLabel) int64 { return int64(12 * l.Len()) }
