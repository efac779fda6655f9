package core

import (
	"fmt"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// Dynamic updates use the classic main+delta design: the indexes cover the
// dataset as it was at engine construction; objects appended later form a
// small delta that queries scan exactly (no pruning, which is trivially
// sound). Friendship edges added between already-indexed users would make
// the stored hop-pivot bounds overestimate (new edges only shorten
// distances), so both endpoints are marked "touched" and excluded from
// pivot-based social pruning. Compact (rebuild the indexes over the grown
// dataset) restores full pruning power; the facade exposes it.

// dynamicState tracks the delta boundaries; zero value = no delta.
type dynamicState struct {
	indexedUsers int
	indexedPOIs  int
	touched      map[socialnet.UserID]bool
	roadVerts    int // road vertices appended since construction
	roadEdges    int // road edges appended since construction
}

// initDynamic records the indexed prefix sizes at engine construction.
func (e *Engine) initDynamic() {
	e.dyn = dynamicState{
		indexedUsers: len(e.DS.Users),
		indexedPOIs:  len(e.DS.POIs),
		touched:      map[socialnet.UserID]bool{},
	}
}

// PendingUpdates returns how many delta objects await compaction.
func (e *Engine) PendingUpdates() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return (len(e.DS.Users) - e.dyn.indexedUsers) +
		(len(e.DS.POIs) - e.dyn.indexedPOIs) +
		len(e.dyn.touched) +
		e.dyn.roadVerts + e.dyn.roadEdges
}

// AddPOI appends a POI to the dataset; it becomes queryable immediately
// through the delta scan.
func (e *Engine) AddPOI(p model.POI) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(p.ID) != len(e.DS.POIs) {
		return fmt.Errorf("core: new POI id %d must be %d", p.ID, len(e.DS.POIs))
	}
	if len(p.Keywords) == 0 {
		return fmt.Errorf("core: POI needs at least one keyword")
	}
	for _, k := range p.Keywords {
		if k < 0 || k >= e.DS.NumTopics {
			return fmt.Errorf("core: keyword %d outside vocabulary [0,%d)", k, e.DS.NumTopics)
		}
	}
	e.DS.POIs = append(e.DS.POIs, p)
	// The new POI's id is its row. A table that no longer matches (another
	// engine over the same dataset moved the oracle or the POI count) can
	// never catch up, so it is dropped and readers build rows on demand.
	if e.poiLabels.ValidFor(e.DS.Road, len(e.DS.POIs)-1) {
		e.poiLabels.Append(e.DS.Road, p.At)
	} else {
		e.poiLabels = nil
	}
	return nil
}

// AddUser appends a user (with no friendships yet).
func (e *Engine) AddUser(u model.User) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(u.ID) != len(e.DS.Users) {
		return fmt.Errorf("core: new user id %d must be %d", u.ID, len(e.DS.Users))
	}
	if len(u.Interests) != e.DS.NumTopics {
		return fmt.Errorf("core: interest vector length %d, want %d", len(u.Interests), e.DS.NumTopics)
	}
	for _, p := range u.Interests {
		// The negated form also rejects NaN, which would otherwise slip
		// through both comparisons and poison interest-score pruning.
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("core: interest %v outside [0,1]", p)
		}
	}
	e.DS.Users = append(e.DS.Users, u)
	if got := e.DS.Social.AddUser(); got != u.ID {
		return fmt.Errorf("core: social graph id %d diverged from dataset id %d", got, u.ID)
	}
	return nil
}

// AddFriendship adds an edge; indexed endpoints lose pivot-based social
// pruning until the next compaction (their stored hop bounds may now
// overestimate). The bool reports whether the graph actually changed: a
// duplicate edge is a no-op and leaves the pruning state — and therefore
// every cached answer — untouched, so callers can skip invalidation.
func (e *Engine) AddFriendship(a, b socialnet.UserID) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.DS.Social.NumUsers()
	if a < 0 || int(a) >= n || b < 0 || int(b) >= n {
		return false, fmt.Errorf("core: friendship %d-%d out of range [0,%d)", a, b, n)
	}
	if a == b {
		return false, fmt.Errorf("core: self-friendship at %d", a)
	}
	if !e.DS.Social.AddFriendship(a, b) {
		return false, nil
	}
	if int(a) < e.dyn.indexedUsers {
		e.dyn.touched[a] = true
	}
	if int(b) < e.dyn.indexedUsers {
		e.dyn.touched[b] = true
	}
	return true, nil
}

// AddRoadVertex appends an isolated road intersection. It cannot change
// any distance (no incident edges yet), so no pruning state or cached
// answer is invalidated. The POI label table is released: the
// graph now answers through the delta-overlay, which exposes no labels.
func (e *Engine) AddRoadVertex(p geo.Point) (roadnet.VertexID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !model.CoordOK(p.X) || !model.CoordOK(p.Y) {
		return 0, fmt.Errorf("core: road vertex coordinate (%v, %v) outside the finite range", p.X, p.Y)
	}
	v := e.DS.Road.AddVertex(p)
	e.dyn.roadVerts++
	e.poiLabels = nil
	return v, nil
}

// AddRoadEdge appends a road segment between two existing intersections.
// Distances can only shrink, and the delta-overlay keeps the attached
// oracle exact (roadnet.Graph.AddEdge), but two classes of derived state
// go stale and are handled here: pivot-table road *lower* bounds (gated
// off engine-wide via roadPivotSafe until the next compaction — stored
// upper bounds remain sound because shrinking true distances only widen
// their slack) and the POI label table (released: the overlay exposes no
// labels).
func (e *Engine) AddRoadEdge(u, v roadnet.VertexID) (roadnet.EdgeID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.DS.Road.NumVertices()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return 0, fmt.Errorf("core: road edge %d-%d out of range [0,%d)", u, v, n)
	}
	if u == v {
		return 0, fmt.Errorf("core: self-loop road edge at vertex %d", u)
	}
	if e.DS.Road.HasEdge(u, v) {
		return 0, fmt.Errorf("core: duplicate road edge %d-%d", u, v)
	}
	id := e.DS.Road.AddEdge(u, v)
	e.dyn.roadEdges++
	e.poiLabels = nil // the overlay exposes no labels; see AddRoadVertex
	return id, nil
}

// roadPivotSafe reports whether pivot-table road distances are still
// sound as LOWER bounds: true iff no road edge has been appended since
// the indexes were built. New edges only shorten distances, so stored
// pivot rows can overestimate — upper-bound uses stay sound and are not
// gated. Appending isolated vertices changes nothing (attachments can
// only sit on edges), so roadVerts does not participate.
func (e *Engine) roadPivotSafe() bool { return e.dyn.roadEdges == 0 }

// pivotPruningSafe reports whether the stored hop-pivot vector of an
// indexed user is still a sound lower bound.
func (e *Engine) pivotPruningSafe(u socialnet.UserID) bool {
	return int(u) < e.dyn.indexedUsers && !e.dyn.touched[u]
}

// userRDOf returns the road pivot distance vector of any user, computing
// it on the fly for delta users.
func (e *Engine) userRDOf(u socialnet.UserID) []float64 {
	if int(u) < e.dyn.indexedUsers {
		return e.Social.UserRoadDist(u)
	}
	return e.Road.Pivots.AttachDistAll(e.DS.Road, e.DS.Users[u].At)
}

// poiRDOf returns the road pivot distance vector of any POI, computing it
// on the fly for delta POIs.
func (e *Engine) poiRDOf(id model.POIID) []float64 {
	if int(id) < e.dyn.indexedPOIs {
		return e.Road.POIDist(id)
	}
	return e.Road.Pivots.AttachDistAll(e.DS.Road, e.DS.POIs[id].At)
}

// scanDeltaUsers appends the interest-compatible delta users to the
// candidate set. It MUST run before the index traversal so the Eq. 18
// feasibility guard (which certifies every surviving candidate before an
// anchor may tighten δ) covers the delta; hop filtering happens exactly in
// refinement. Indexed users touched by new edges stay in the index
// traversal — only their hop-pivot rule is disabled there.
func (e *Engine) scanDeltaUsers(uq socialnet.UserID, p Params, region *PruneRegion, tr *traversal) {
	ds := e.DS
	uqW := ds.Users[uq].Interests
	for id := e.dyn.indexedUsers; id < len(ds.Users); id++ {
		u := socialnet.UserID(id)
		if u == uq {
			continue
		}
		if interestPrunable(p, region, uqW, ds.Users[u].Interests) {
			continue
		}
		tr.candUsers = append(tr.candUsers, u)
	}
}

// scanDeltaAnchors appends every delta POI as a candidate anchor. Without
// a sup_K superset no matching bound exists for them, so they skip both
// score and distance pruning — trivially sound — and carry no distance
// lower bound.
func (e *Engine) scanDeltaAnchors(tr *traversal) {
	for id := e.dyn.indexedPOIs; id < len(e.DS.POIs); id++ {
		tr.candAnchors = append(tr.candAnchors, model.POIID(id))
		tr.candLB = append(tr.candLB, 0)
	}
}

// deltaBallMembers returns the delta POIs within Euclidean radius of a
// point (the R*-tree only covers the indexed prefix).
func (e *Engine) deltaBallMembers(anchor model.POIID, radius float64) []model.POIID {
	var out []model.POIID
	loc := e.DS.POIs[anchor].Loc
	for id := e.dyn.indexedPOIs; id < len(e.DS.POIs); id++ {
		if e.DS.POIs[id].Loc.Dist(loc) <= radius {
			out = append(out, model.POIID(id))
		}
	}
	return out
}
