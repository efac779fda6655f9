package gpssn

import (
	"fmt"
	"math"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
	"gpssn/internal/wal"
)

// finite reports whether every coordinate is an ordinary float within
// model.MaxCoord: NaN, ±Inf, and over-magnitude coordinates would silently
// corrupt the snapping search and every downstream distance, so the facade
// rejects them up front.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if !model.CoordOK(v) {
			return false
		}
	}
	return true
}

// Dynamic updates. A DB accepts new POIs, users, friendships, road
// vertices, and road edges after Open. Object additions live in a small
// delta that queries scan exactly (the main+delta design); road
// mutations keep the distance oracle attached through a delta-overlay
// (internal/roadnet/overlay.go) so queries stay oracle-class and exact
// under write traffic. Compact rebuilds the indexes and re-contracts the
// oracle in the background to absorb everything and restore full pruning
// power.
//
// Locking: every updater takes db.upd (the update-class lock) first,
// then db.mu exclusively. Queries take only db.mu's read side, so an
// update serializes against in-flight queries and other updates, and a
// concurrent query sees the network either entirely before or entirely
// after an update. Compact holds db.upd for its whole (possibly long)
// rebuild but db.mu only for two short critical sections — updates wait,
// queries do not (docs/CONCURRENCY.md).
//
// Invalidation is per update kind: a change that provably cannot affect
// any cached answer (an isolated road vertex, a duplicate friendship)
// flushes nothing.
//
// Durability (durable.go): with Config.WALPath set, each mutator splits
// into a check step (all validation and every precondition that could
// fail, run first — a rejected call touches neither the WAL nor any
// state), a WAL append of the mutation's arguments, and an apply step
// (deterministic given the state it runs against, shared verbatim with
// crash-recovery replay). No-ops — a duplicate friendship — are detected
// in the check step and never logged.

// AddPOI adds a POI at (x, y) — snapped onto the nearest road segment —
// with the given keywords, and returns its id. The POI is queryable
// immediately. Safe for concurrent use; blocks until in-flight queries
// drain.
func (db *DB) AddPOI(x, y float64, keywords ...int) (int, error) {
	id, err := db.addPOI(x, y, keywords)
	if err == nil {
		db.maybeMaintain()
	}
	return id, err
}

func (db *DB) addPOI(x, y float64, keywords []int) (int, error) {
	db.upd.Lock()
	defer db.upd.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkAddPOI(x, y, keywords); err != nil {
		return 0, err
	}
	lsn, err := db.walAppend(wal.KindAddPOI, encodeAddPOI(x, y, keywords))
	if err != nil {
		return 0, err
	}
	id, err := db.applyAddPOI(x, y, keywords)
	if err != nil {
		db.walRollback(lsn)
		return 0, err
	}
	db.walCommit(lsn)
	return id, nil
}

func (db *DB) checkAddPOI(x, y float64, keywords []int) error {
	if !finite(x, y) {
		return invalidf("POI coordinates (%v, %v) must be finite", x, y)
	}
	if len(keywords) == 0 {
		return invalidf("POI needs at least one keyword")
	}
	for _, k := range keywords {
		if k < 0 || k >= db.net.ds.NumTopics {
			return invalidf("POI keyword %d outside vocabulary [0,%d)", k, db.net.ds.NumTopics)
		}
	}
	if _, ok := db.net.ds.Road.SnapPoint(geo.Pt(x, y)); !ok {
		return fmt.Errorf("gpssn: no road to snap the POI onto")
	}
	return nil
}

func (db *DB) applyAddPOI(x, y float64, keywords []int) (int, error) {
	at, ok := db.net.ds.Road.SnapPoint(geo.Pt(x, y))
	if !ok {
		return 0, fmt.Errorf("gpssn: no road to snap the POI onto")
	}
	id := len(db.net.ds.POIs)
	p := model.POI{
		ID:       model.POIID(id),
		At:       at,
		Loc:      db.net.ds.Road.Location(at),
		Keywords: append([]int(nil), keywords...),
	}
	if err := db.engine.AddPOI(p); err != nil {
		return 0, err
	}
	db.cache.invalidate()
	return id, nil
}

// AddUser adds a user with a home at (x, y) and the given interest vector,
// returning the new id. Add friendships with AddFriendship to make the
// user eligible for groups of size > 1. Safe for concurrent use; blocks
// until in-flight queries drain.
func (db *DB) AddUser(x, y float64, interests []float64) (int, error) {
	id, err := db.addUser(x, y, interests)
	if err == nil {
		db.maybeMaintain()
	}
	return id, err
}

func (db *DB) addUser(x, y float64, interests []float64) (int, error) {
	db.upd.Lock()
	defer db.upd.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkAddUser(x, y, interests); err != nil {
		return 0, err
	}
	lsn, err := db.walAppend(wal.KindAddUser, encodeAddUser(x, y, interests))
	if err != nil {
		return 0, err
	}
	id, err := db.applyAddUser(x, y, interests)
	if err != nil {
		db.walRollback(lsn)
		return 0, err
	}
	db.walCommit(lsn)
	return id, nil
}

func (db *DB) checkAddUser(x, y float64, interests []float64) error {
	if !finite(x, y) {
		return invalidf("user coordinates (%v, %v) must be finite", x, y)
	}
	for f, p := range interests {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return invalidf("user interest %d = %v outside [0,1]", f, p)
		}
	}
	if _, ok := db.net.ds.Road.SnapPoint(geo.Pt(x, y)); !ok {
		return fmt.Errorf("gpssn: no road to snap the user onto")
	}
	return nil
}

func (db *DB) applyAddUser(x, y float64, interests []float64) (int, error) {
	at, ok := db.net.ds.Road.SnapPoint(geo.Pt(x, y))
	if !ok {
		return 0, fmt.Errorf("gpssn: no road to snap the user onto")
	}
	id := len(db.net.ds.Users)
	u := model.User{
		ID:        socialnet.UserID(id),
		At:        at,
		Loc:       db.net.ds.Road.Location(at),
		Interests: append([]float64(nil), interests...),
	}
	if err := db.engine.AddUser(u); err != nil {
		return 0, err
	}
	db.cache.invalidate()
	return id, nil
}

// AddFriendship records a friendship between two users (existing or newly
// added). The bool reports whether the social graph actually changed: a
// friendship that already exists is a no-op, returns (false, nil), and —
// because it cannot affect any answer — does not flush the answer cache
// (or log anything). Out-of-range ids and self-friendships return an
// error matching ErrInvalidInput (they used to panic). Safe for
// concurrent use; blocks until in-flight queries drain.
func (db *DB) AddFriendship(a, b int) (bool, error) {
	added, err := db.addFriendship(a, b)
	if err == nil && added {
		db.maybeMaintain()
	}
	return added, err
}

func (db *DB) addFriendship(a, b int) (bool, error) {
	db.upd.Lock()
	defer db.upd.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkAddFriendship(a, b); err != nil {
		return false, err
	}
	if db.net.ds.Social.AreFriends(socialnet.UserID(a), socialnet.UserID(b)) {
		return false, nil // no-op: nothing to make durable
	}
	lsn, err := db.walAppend(wal.KindAddFriendship, encodePair(a, b))
	if err != nil {
		return false, err
	}
	if err := db.applyAddFriendship(a, b); err != nil {
		db.walRollback(lsn)
		return false, err
	}
	db.walCommit(lsn)
	return true, nil
}

func (db *DB) checkAddFriendship(a, b int) error {
	n := len(db.net.ds.Users)
	if a < 0 || a >= n || b < 0 || b >= n {
		return invalidf("friendship %d-%d out of range [0,%d)", a, b, n)
	}
	if a == b {
		return invalidf("self-friendship at user %d", a)
	}
	return nil
}

func (db *DB) applyAddFriendship(a, b int) error {
	added, err := db.engine.AddFriendship(socialnet.UserID(a), socialnet.UserID(b))
	if err != nil {
		return err
	}
	if !added {
		// The caller pre-checked AreFriends, so this only happens when a
		// WAL is replayed against a base state that already holds the
		// friendship — a log/state mismatch, not a no-op.
		return fmt.Errorf("gpssn: friendship %d-%d already present", a, b)
	}
	db.cache.invalidate()
	return nil
}

// AddRoadVertex adds a road intersection at (x, y) and returns its id.
// The new vertex is isolated until AddRoadEdge connects it; since an
// isolated vertex cannot change any distance, this update invalidates
// nothing — no cached answer, no memoized work, no pruning state. Safe
// for concurrent use; blocks until in-flight queries drain.
func (db *DB) AddRoadVertex(x, y float64) (int, error) {
	id, err := db.addRoadVertex(x, y)
	if err == nil {
		db.maybeMaintain()
	}
	return id, err
}

func (db *DB) addRoadVertex(x, y float64) (int, error) {
	db.upd.Lock()
	defer db.upd.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkAddRoadVertex(x, y); err != nil {
		return 0, err
	}
	lsn, err := db.walAppend(wal.KindAddRoadVertex, encodePoint(x, y))
	if err != nil {
		return 0, err
	}
	id, err := db.applyAddRoadVertex(x, y)
	if err != nil {
		db.walRollback(lsn)
		return 0, err
	}
	db.walCommit(lsn)
	return id, nil
}

func (db *DB) checkAddRoadVertex(x, y float64) error {
	if !finite(x, y) {
		return invalidf("road vertex coordinates (%v, %v) must be finite", x, y)
	}
	return nil
}

func (db *DB) applyAddRoadVertex(x, y float64) (int, error) {
	v, err := db.engine.AddRoadVertex(geo.Pt(x, y))
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// AddRoadEdge adds a road segment between two existing intersections,
// weighted by their Euclidean distance, and returns its id. The distance
// oracle stays attached — a delta-overlay composes exact answers over
// the mutated topology at oracle speed — so queries never fall back to
// plain Dijkstra under write traffic. Self-loops, out-of-range
// endpoints, and duplicate edges return an error matching
// ErrInvalidInput (the internal roadnet panic is reserved for misuse of
// the internal API). The answer cache is flushed: a new segment can
// shorten any distance. Call Compact
// periodically under sustained churn — or set
// Config.OverlayCompactPortals to have it triggered automatically — to
// re-contract the oracle and re-arm pivot-based distance pruning. Safe
// for concurrent use; blocks until in-flight queries drain.
func (db *DB) AddRoadEdge(u, v int) (int, error) {
	id, err := db.addRoadEdge(u, v)
	if err == nil {
		db.maybeMaintain()
	}
	return id, err
}

func (db *DB) addRoadEdge(u, v int) (int, error) {
	db.upd.Lock()
	defer db.upd.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkAddRoadEdge(u, v); err != nil {
		return 0, err
	}
	lsn, err := db.walAppend(wal.KindAddRoadEdge, encodePair(u, v))
	if err != nil {
		return 0, err
	}
	id, err := db.applyAddRoadEdge(u, v)
	if err != nil {
		db.walRollback(lsn)
		return 0, err
	}
	db.walCommit(lsn)
	return id, nil
}

func (db *DB) checkAddRoadEdge(u, v int) error {
	n := db.net.ds.Road.NumVertices()
	if u < 0 || u >= n || v < 0 || v >= n {
		return invalidf("road edge %d-%d out of range [0,%d)", u, v, n)
	}
	if u == v {
		return invalidf("self-loop road edge at vertex %d", u)
	}
	if db.net.ds.Road.HasEdge(roadnet.VertexID(u), roadnet.VertexID(v)) {
		return invalidf("duplicate road edge %d-%d", u, v)
	}
	return nil
}

func (db *DB) applyAddRoadEdge(u, v int) (int, error) {
	id, err := db.engine.AddRoadEdge(roadnet.VertexID(u), roadnet.VertexID(v))
	if err != nil {
		return 0, err
	}
	db.cache.invalidate()
	return int(id), nil
}

// RoadOverlayStats describes the delta-overlay currently composing road
// distances, if any: how many vertices/edges have been appended since
// the static oracle was built, the portal count (the patch matrix is
// Portals², so this is the number to watch under sustained churn), and
// how many composed queries it has served. Active is false when the
// oracle is static (no road mutation since Open or the last Compact).
// gpssn-serve surfaces it under /statsz.
type RoadOverlayStats = roadnet.OverlayStats

// RoadOverlayStats snapshots the road delta-overlay state. Safe for
// concurrent use.
func (db *DB) RoadOverlayStats() RoadOverlayStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.net.ds.Road.OverlayStats()
}

// PendingUpdates returns how many dynamic updates await compaction. Safe
// for concurrent use.
func (db *DB) PendingUpdates() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.PendingUpdates()
}

// cloneDataset copies the dataset for an off-lock rebuild. The road
// graph is deep-cloned (Open attaches a fresh oracle to it, which must
// not race queries reading the live one); the social graph and the
// user/POI slices are shared — db.upd blocks every mutation for the
// duration of the rebuild, and capping the slice headers keeps
// post-swap appends from aliasing the old dataset.
func cloneDataset(ds *model.Dataset) *model.Dataset {
	return &model.Dataset{
		Name:      ds.Name,
		Road:      ds.Road.Clone(),
		Social:    ds.Social,
		Users:     ds.Users[:len(ds.Users):len(ds.Users)],
		POIs:      ds.POIs[:len(ds.POIs):len(ds.POIs)],
		NumTopics: ds.NumTopics,
	}
}

// Compact rebuilds the indexes over the grown dataset and re-contracts
// the distance oracle, absorbing all dynamic updates (the road
// delta-overlay drains into the fresh static oracle) and restoring full
// pruning power. The rebuild runs in the background against a cloned
// topology: queries keep being answered by the live engine for its whole
// duration — exactly, through the overlay — and only the final swap
// takes the exclusive lock, briefly. Other updates block until the
// rebuild finishes (they would invalidate the clone). Health().Rebuilding
// is set while the rebuild is in flight; on failure the live engine
// keeps serving unchanged and the error is also recorded as a Health
// note. Safe for concurrent use.
func (db *DB) Compact() error {
	db.upd.Lock()
	defer db.upd.Unlock()

	// Short critical section 1: clone the topology and mark rebuilding.
	db.mu.Lock()
	snap := cloneDataset(db.net.ds)
	db.health.Rebuilding = true
	db.mu.Unlock()

	// Off-lock rebuild. db.upd guarantees the clone cannot go stale: no
	// mutation can land between the clone and the swap. The rebuild runs
	// without WAL config: the clone already contains every applied update,
	// the live log stays attached across the swap (Compact changes no
	// logical state, so the log still replays onto the same checkpoint),
	// and reopening the log file here would double-apply its records.
	cfg := db.cfg
	cfg.WALPath = ""
	freshNet := &Network{ds: snap}
	fresh, err := Open(freshNet, cfg)

	// Short critical section 2: swap the rebuilt world in, or roll back.
	db.mu.Lock()
	defer db.mu.Unlock()
	db.health.Rebuilding = false
	if err != nil {
		db.health.Notes = append(db.health.Notes,
			fmt.Sprintf("background re-contraction failed (%v); previous engine kept serving", err))
		return fmt.Errorf("gpssn: compaction failed: %w", err)
	}
	db.net = freshNet
	db.engine = fresh.engine
	db.health.OracleRequested = fresh.health.OracleRequested
	db.health.OracleActive = fresh.health.OracleActive
	db.health.Degraded = fresh.health.Degraded
	db.health.Notes = append(db.health.Notes, fresh.health.Notes...)
	db.BuildTime = fresh.BuildTime
	db.cache.invalidate()
	return nil
}
