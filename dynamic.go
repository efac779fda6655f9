package gpssn

import (
	"errors"
	"fmt"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
	"gpssn/internal/wal"
)

// Dynamic updates. A DB accepts new POIs, users, friendships, road
// vertices, and road edges after Open. Object additions live in a small
// delta that queries scan exactly (the main+delta design); road
// mutations keep hub labels exact in place (internal/roadnet/hl) and
// bring the engine's distance-derived state up to date, so queries stay
// oracle-class and exact under write traffic. Compact rebuilds the
// indexes and the oracle in the background to fold the delta in and
// re-minimise the labels.
//
// One write path. Each mutator builds one mutation value of its kind and
// hands it to commit, which every update — live or replayed from the WAL
// (durable.go) — goes through:
//
//   - check decides every rejection a caller can cause, against the
//     state the update will apply to, and snaps a new object's location
//     once. The rules it applies are internal/model's, the same ones the
//     engine, the Builder and Dataset.Validate call. A rejected update
//     writes nothing to the WAL and changes no state. A no-op (a
//     duplicate friendship) is refused here too, as errUnchanged, and
//     never logged.
//   - record is the WAL record of the mutation's inputs; commit appends
//     it, durably per Config.WALSync, before anything is applied.
//   - apply changes the engine and invalidates what the kind can affect;
//     it is deterministic given the state it runs against, so replaying
//     the record reproduces it. If it fails anyway, commit rolls the
//     record back.
//
// Locking: commit takes db.upd (the update-class lock) first, then db.mu
// exclusively, then the network's lock. Queries take only db.mu's read
// side, so an update serializes against in-flight queries and other
// updates, and a concurrent query sees the network either entirely before
// or entirely after an update. Compact holds db.upd for its whole
// (possibly long) rebuild but db.mu only for two short critical sections
// — updates wait, queries do not (docs/CONCURRENCY.md).
//
// Invalidation is per update kind: a change that provably cannot affect
// any cached answer (an isolated road vertex, a duplicate friendship)
// flushes nothing.

// mutation is one dynamic update of one kind; see the comment above.
type mutation interface {
	check(db *DB) error
	record() (wal.Kind, []byte)
	apply(db *DB) (int, error)
}

// errUnchanged is the check error of an update that would change nothing
// (a friendship already present). The mutator reports it as a no-op; on
// replay it means the log does not pair with the base state.
var errUnchanged = errors.New("gpssn: update changes nothing: already present")

// update commits m and, when it changed the state, runs the
// auto-maintenance triggers outside both locks.
func (db *DB) update(m mutation) (int, error) {
	id, err := db.commit(m)
	if err == nil {
		db.maybeMaintain()
	}
	return id, err
}

// commit is the write path: check, append, apply, under db.upd, db.mu
// and the network's lock. It returns apply's id. WAL replay calls it
// before the log is attached, where the append and the commit mark are
// no-ops.
func (db *DB) commit(m mutation) (int, error) {
	db.upd.Lock()
	defer db.upd.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.net.mu.Lock()
	defer db.net.mu.Unlock()
	if db.released || db.net.dbs > 1 {
		return 0, fmt.Errorf("%w: this DB is closed or another is open over its network; Compact moves a DB onto a private copy", ErrSharedNetwork)
	}
	if err := m.check(db); err != nil {
		return 0, err
	}
	lsn, err := db.walAppend(m.record())
	if err != nil {
		return 0, err
	}
	id, err := m.apply(db)
	if err != nil {
		db.walRollback(lsn)
		return 0, err
	}
	db.walCommit(lsn)
	db.net.gen++
	return id, nil
}

// invalid wraps a failed update rule of internal/model as ErrInvalidInput,
// naming what was being added; nil stays nil.
func invalid(what string, err error) error {
	if err != nil {
		return invalidf("%s: %w", what, err)
	}
	return nil
}

// place checks a new object's location and then its content rule
// (content), and snaps the location onto the nearest road segment.
func (db *DB) place(what string, x, y float64, content error) (roadnet.Attach, error) {
	if err := invalid(what, model.CheckPoint(x, y)); err != nil {
		return roadnet.Attach{}, err
	}
	if err := invalid(what, content); err != nil {
		return roadnet.Attach{}, err
	}
	at, ok := db.net.ds.Road.SnapPoint(geo.Pt(x, y))
	if !ok {
		return at, fmt.Errorf("gpssn: no road to snap the %s onto", what)
	}
	return at, nil
}

// AddPOI adds a POI at (x, y) — snapped onto the nearest road segment —
// with the given keywords, and returns its id. The POI is queryable
// immediately. Safe for concurrent use; blocks until in-flight queries
// drain.
func (db *DB) AddPOI(x, y float64, keywords ...int) (int, error) {
	return db.update(&addPOI{x: x, y: y, keywords: keywords})
}

type addPOI struct {
	x, y     float64
	keywords []int
	at       roadnet.Attach // set by check
}

func (m *addPOI) check(db *DB) (err error) {
	m.at, err = db.place("POI", m.x, m.y, model.CheckKeywords(m.keywords, db.net.ds.NumTopics))
	return err
}

func (m *addPOI) apply(db *DB) (int, error) {
	id := len(db.net.ds.POIs)
	p := model.POI{
		ID:       model.POIID(id),
		At:       m.at,
		Loc:      db.net.ds.Road.Location(m.at),
		Keywords: append([]int(nil), m.keywords...),
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
	return db.update(&addUser{x: x, y: y, interests: interests})
}

type addUser struct {
	x, y      float64
	interests []float64
	at        roadnet.Attach // set by check
}

func (m *addUser) check(db *DB) (err error) {
	m.at, err = db.place("user", m.x, m.y, model.CheckInterests(m.interests, db.net.ds.NumTopics))
	return err
}

func (m *addUser) apply(db *DB) (int, error) {
	id := len(db.net.ds.Users)
	u := model.User{
		ID:        socialnet.UserID(id),
		At:        m.at,
		Loc:       db.net.ds.Road.Location(m.at),
		Interests: append([]float64(nil), m.interests...),
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
	_, err := db.update(&addFriendship{a: a, b: b})
	if errors.Is(err, errUnchanged) {
		return false, nil
	}
	return err == nil, err
}

type addFriendship struct{ a, b int }

func (m *addFriendship) check(db *DB) error {
	if err := invalid("AddFriendship", model.CheckEnds("friendship", m.a, m.b, len(db.net.ds.Users))); err != nil {
		return err
	}
	if db.net.ds.Social.AreFriends(socialnet.UserID(m.a), socialnet.UserID(m.b)) {
		return errUnchanged
	}
	return nil
}

func (m *addFriendship) apply(db *DB) (int, error) {
	if _, err := db.engine.AddFriendship(socialnet.UserID(m.a), socialnet.UserID(m.b)); err != nil {
		return 0, err
	}
	db.cache.invalidate()
	return 0, nil
}

// AddRoadVertex adds a road intersection at (x, y) and returns its id.
// The new vertex is isolated until AddRoadEdge connects it; since an
// isolated vertex cannot change any distance, this update invalidates
// nothing — no cached answer, no memoized work, no pruning state. Safe
// for concurrent use; blocks until in-flight queries drain.
func (db *DB) AddRoadVertex(x, y float64) (int, error) {
	return db.update(&addRoadVertex{x: x, y: y})
}

type addRoadVertex struct{ x, y float64 }

func (m *addRoadVertex) check(*DB) error {
	return invalid("road vertex", model.CheckPoint(m.x, m.y))
}

func (m *addRoadVertex) apply(db *DB) (int, error) {
	v, err := db.engine.AddRoadVertex(geo.Pt(m.x, m.y))
	return int(v), err
}

// AddRoadEdge adds a road segment between two existing intersections,
// weighted by their Euclidean distance, and returns its id. Hub labels
// are updated in place and stay exact, and the engine brings its pivot
// bounds, keyword rows and POI label table up to date, so pruning stays
// live; a pendant vertex (a new end with no other edge) changes none of
// them. A "ch" oracle cannot follow the insert: the first new edge
// detaches it, plain Dijkstra serves until Compact, and Health says so.
// Self-loops, out-of-range endpoints, and duplicate edges return an
// error matching ErrInvalidInput (the internal roadnet panic is reserved
// for misuse of the internal API). The answer cache is flushed: a new
// segment can shorten any distance. Call Compact periodically under
// sustained churn — or set Config.OverlayCompactPortals to have it
// triggered automatically — to re-minimise the labels. Safe for
// concurrent use; blocks until in-flight queries drain.
func (db *DB) AddRoadEdge(u, v int) (int, error) {
	return db.update(&addRoadEdge{u: u, v: v})
}

type addRoadEdge struct{ u, v int }

func (m *addRoadEdge) check(db *DB) error {
	road := db.net.ds.Road
	if err := invalid("AddRoadEdge", model.CheckEnds("road edge", m.u, m.v, road.NumVertices())); err != nil {
		return err
	}
	if road.HasEdge(roadnet.VertexID(m.u), roadnet.VertexID(m.v)) {
		return invalidf("duplicate road edge %d-%d", m.u, m.v)
	}
	return nil
}

func (m *addRoadEdge) apply(db *DB) (int, error) {
	id, err := db.engine.AddRoadEdge(roadnet.VertexID(m.u), roadnet.VertexID(m.v))
	if err != nil {
		return 0, err
	}
	if db.net.ds.Road.Oracle() == nil && db.health.OracleActive != "dijkstra" {
		db.health.Notes = append(db.health.Notes, fmt.Sprintf(
			"road edge %d detached the %s oracle, which has no update; plain Dijkstra serves until Compact", id, db.health.OracleActive))
		db.health.OracleActive = "dijkstra"
	}
	db.cache.invalidate()
	return int(id), nil
}

// RoadOverlayStats counts the road inserts since the oracle was built
// (Open or the last Compact): vertices and edges appended, and Portals,
// the new vertices plus the distinct older vertices new edges touch, the
// number Config.OverlayCompactPortals watches. Active is false with no
// insert since, or when no oracle was built (the "dijkstra" backend).
// The name is historical: no overlay composes distances any more.
// gpssn-serve surfaces it under /statsz.
type RoadOverlayStats = roadnet.OverlayStats

// RoadOverlayStats snapshots the road insert counters (zero where a
// closed DB's reads are refused). Safe for concurrent use.
func (db *DB) RoadOverlayStats() RoadOverlayStats {
	if db.rlock() != nil {
		return RoadOverlayStats{}
	}
	defer db.runlock()
	return db.net.ds.Road.OverlayStats()
}

// PendingUpdates returns how many dynamic updates await compaction (0
// where a closed DB's reads are refused). Safe for concurrent use.
func (db *DB) PendingUpdates() int {
	if db.rlock() != nil {
		return 0
	}
	defer db.runlock()
	return db.engine.PendingUpdates()
}

// cloneDataset copies the dataset for an off-lock rebuild, sharing no
// mutable state with it: both graphs are cloned, and the user and POI
// slices, whose elements never change, are shared under capped headers,
// so post-swap appends never alias the old dataset.
func cloneDataset(ds *model.Dataset) *model.Dataset {
	return &model.Dataset{
		Name:      ds.Name,
		Road:      ds.Road.Clone(),
		Social:    ds.Social.Clone(),
		Users:     ds.Users[:len(ds.Users):len(ds.Users)],
		POIs:      ds.POIs[:len(ds.POIs):len(ds.POIs)],
		NumTopics: ds.NumTopics,
	}
}

// Compact rebuilds the indexes and the distance oracle over a private
// copy of the grown dataset, folding every dynamic update into the
// indexes, re-minimising the hub labels road inserts grew, and restoring
// full pruning power. The rebuild runs in the background against the
// copy: queries keep being answered exactly by the live engine for its
// whole duration, and only the final swap takes the exclusive lock,
// briefly. Other updates block until the rebuild finishes (they would
// invalidate the copy). Health().Rebuilding is set while the rebuild is
// in flight; on failure the live engine keeps serving unchanged and the
// error is also recorded as a Health note. The swap leaves the old
// network unchanged, so a DB that shared it may write again. Safe for
// concurrent use; fails with ErrSharedNetwork after Close.
func (db *DB) Compact() error {
	db.upd.Lock()
	defer db.upd.Unlock()
	if db.released { // set under db.upd
		return fmt.Errorf("gpssn: compaction: %w: this DB is closed", ErrSharedNetwork)
	}

	// Short critical section 1: mark rebuilding. db.upd keeps every
	// update out, so the copy is taken outside db.mu.
	db.mu.Lock()
	db.health.Rebuilding = true
	db.mu.Unlock()
	snap := cloneDataset(db.net.ds)

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
	db.net.release()
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
