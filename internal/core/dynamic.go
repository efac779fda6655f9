package core

import (
	"fmt"
	"slices"

	"gpssn/internal/geo"
	"gpssn/internal/index"
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
// pivot-based social pruning. Road edges appended later leave the road
// indexes and the POI label table answering for the base graph; the
// clearance rule (pending.go) says per object where that is still exact.
// Compact (rebuild the indexes over the grown dataset) restores full
// pruning power; the facade exposes it.

// dynamicState tracks the delta boundaries; zero value = no delta.
type dynamicState struct {
	indexedUsers int
	indexedPOIs  int
	// touched holds the I_S leaf positions of the indexed users whose
	// stored hop rows new friendship edges may have made overestimate,
	// ascending: a subtree is hop-unsafe iff its position range holds one.
	touched   []int32
	roadVerts int // road vertices appended since construction
	roadEdges int // road edges appended since construction
	// clean is set when the road graph had no pending edge at
	// construction: the indexes then answer for its base G0, and the
	// clearance rule applies (pending.go).
	clean bool
}

// initDynamic records the indexed prefix sizes at engine construction and
// marks the road graph's base, unless edges are already pending on it.
func (e *Engine) initDynamic() {
	e.DS.Road.MarkBase()
	e.dyn = dynamicState{
		indexedUsers: len(e.DS.Users),
		indexedPOIs:  len(e.DS.POIs),
		clean:        e.DS.Road.PendingEdges() == 0,
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
	if err := model.CheckKeywords(p.Keywords, e.DS.NumTopics); err != nil {
		return fmt.Errorf("core: POI %d: %w", p.ID, err)
	}
	e.DS.POIs = append(e.DS.POIs, p)
	// The new POI can join indexed anchors' balls: widen their keyword
	// distances so Lemmas 1/6 stay sound.
	e.Road.AddPOI(p.ID)
	// The new POI's id is its row (empty when it sits on a new road edge).
	// A table that no longer matches (another engine over the same dataset
	// moved the oracle or the POI count) can never catch up, so it is
	// dropped and readers build rows on demand.
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
	if err := model.CheckInterests(u.Interests, e.DS.NumTopics); err != nil {
		return fmt.Errorf("core: user %d: %w", u.ID, err)
	}
	if got := e.topics.rows(); got != int(u.ID) {
		return fmt.Errorf("core: user topic table has %d rows, new user %d would not sit at its id", got, u.ID)
	}
	e.DS.Users = append(e.DS.Users, u)
	e.topics.add(u.Interests)
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
	if err := model.CheckEnds("friendship", int(a), int(b), e.DS.Social.NumUsers()); err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	if !e.DS.Social.AddFriendship(a, b) {
		return false, nil
	}
	e.touch(a)
	e.touch(b)
	return true, nil
}

// touch records that indexed user u's hop row may now overestimate, keeping
// dyn.touched sorted; delta users have no stored row.
func (e *Engine) touch(u socialnet.UserID) {
	if int(u) >= e.dyn.indexedUsers {
		return
	}
	at := int32(e.Social.Pos(u))
	if i, found := slices.BinarySearch(e.dyn.touched, at); !found {
		e.dyn.touched = slices.Insert(e.dyn.touched, i, at)
	}
}

// AddRoadVertex appends an isolated road intersection. It cannot change
// any distance (no incident edges yet), so no pruning state or cached
// answer is invalidated.
func (e *Engine) AddRoadVertex(p geo.Point) (roadnet.VertexID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := model.CheckPoint(p.X, p.Y); err != nil {
		return 0, fmt.Errorf("core: road vertex: %w", err)
	}
	v := e.DS.Road.AddVertex(p)
	e.dyn.roadVerts++
	return v, nil
}

// AddRoadEdge appends a road segment between two existing intersections.
// Distances can only shrink, and the delta-overlay keeps the attached
// oracle exact (roadnet.Graph.AddEdge). What the engine derived from the
// base graph — pivot lower bounds, keyword rows, the POI label table —
// keeps answering for the base; the clearance rule (pending.go) decides
// per object where that is still exact in the grown graph, until the
// next compaction.
func (e *Engine) AddRoadEdge(u, v roadnet.VertexID) (roadnet.EdgeID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := model.CheckEnds("road edge", int(u), int(v), e.DS.Road.NumVertices()); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if e.DS.Road.HasEdge(u, v) {
		return 0, fmt.Errorf("core: duplicate road edge %d-%d", u, v)
	}
	id := e.DS.Road.AddEdge(u, v)
	e.dyn.roadEdges++
	return id, nil
}

// keywordRowsComplete reports whether the index's keyword distance rows
// account for every POI of the dataset (Lemmas 1/6): AddPOI widens the
// rows, but a POI appended through another engine over the same dataset
// does not, and Compact rebuilds them. Pending road edges are the
// clearance rule's business, per anchor and per node.
func (e *Engine) keywordRowsComplete() bool {
	return e.Road.KeywordPOIs() == len(e.DS.POIs)
}

// pivotPruningSafe reports whether u is indexed and its stored hop-pivot
// vector is still a sound lower bound.
func (e *Engine) pivotPruningSafe(u socialnet.UserID) bool {
	return int(u) < e.dyn.indexedUsers && !e.touchedAt(e.Social.Pos(u))
}

// touchedAt reports whether the indexed user at leaf position at has a
// hop row new friendship edges may have invalidated.
func (e *Engine) touchedAt(at int) bool {
	_, found := slices.BinarySearch(e.dyn.touched, int32(at))
	return found
}

// hopUnsafe reports whether n's subtree holds a user touchedAt reports:
// the node's hop bounds (Lemma 9) may then overestimate. One binary search
// for the first touched position at or after the subtree's range start.
func (e *Engine) hopUnsafe(n *index.SNode) bool {
	i, _ := slices.BinarySearch(e.dyn.touched, int32(n.First))
	return i < len(e.dyn.touched) && n.Holds(int(e.dyn.touched[i]))
}

// userRDOf returns the road pivot distance vector of any user, computing
// it on the fly for delta users; nil for a delta user on a new road edge,
// whose distances to the pivots the stored rows cannot give (its lower
// bounds are 0).
func (e *Engine) userRDOf(u socialnet.UserID) []float64 {
	if int(u) < e.dyn.indexedUsers {
		return e.Social.UserRoadDist(u)
	}
	return e.deltaRD(e.DS.Users[u].At)
}

// poiRDOf returns the road pivot distance vector of any POI, computing it
// on the fly for delta POIs; nil as for userRDOf.
func (e *Engine) poiRDOf(id model.POIID) []float64 {
	if int(id) < e.dyn.indexedPOIs {
		return e.Road.POIDist(id)
	}
	return e.deltaRD(e.DS.POIs[id].At)
}

// deltaRD is a delta object's pivot vector from the pivot rows, or nil on
// a new road edge.
func (e *Engine) deltaRD(at roadnet.Attach) []float64 {
	if e.DS.Road.NewEdge(at.Edge) {
		return nil
	}
	return e.Road.Pivots.AttachDistAll(e.DS.Road, at)
}

// scanDeltaUsers appends the interest-compatible delta users to cand;
// the social half's hop filter runs on them like on every candidate. Indexed
// users touched by new edges stay in the index traversal — only their
// hop-pivot rule is disabled there.
func (e *Engine) scanDeltaUsers(uq socialnet.UserID, p Params, uqRow topicRow, cand []socialnet.UserID) []socialnet.UserID {
	ut := e.topics
	for id := e.dyn.indexedUsers; id < len(e.DS.Users); id++ {
		u := socialnet.UserID(id)
		if u == uq || ut.interestPrunable(p, uqRow, ut.user(u)) {
			continue
		}
		cand = append(cand, u)
	}
	return cand
}

// deltaBallMembers returns the delta POIs within Euclidean radius of a
// point (the R-tree only covers the indexed prefix).
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
