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
// pivot-based social pruning. A road edge keeps everything exact: the
// oracle updates itself (roadnet.Graph.AddEdge), and AddRoadEdge brings
// the state derived from road distances — pivot rows and vectors, keyword
// rows, node bounds, the POI label table — up to date. Compact (rebuild
// the indexes over the grown dataset) folds the delta into the indexes;
// the facade exposes it. Every update reaches the dataset through the one
// engine over it, its one writer; engines sharing a dataset only query it.

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
}

// initDynamic records the indexed prefix sizes at engine construction.
func (e *Engine) initDynamic() {
	e.dyn = dynamicState{
		indexedUsers: len(e.DS.Users),
		indexedPOIs:  len(e.DS.POIs),
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
	// The new POI's id is its row.
	if e.poiLabels != nil {
		e.poiLabels.Append(e.DS.Road, p.At)
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
// Distances can only shrink. The graph keeps its oracle exact
// (roadnet.Graph.AddEdge), and the engine brings what it derived from
// road distances up to date from the older vertices whose pivot distance
// fell and the POIs near the edge (index.RoadIndex.AddRoadEdge): nothing
// for a pendant vertex. The POI label table is rebuilt when the edge
// changed a label it was built from (Graph.AddEdge).
func (e *Engine) AddRoadEdge(u, v roadnet.VertexID) (roadnet.EdgeID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.DS.Road
	if err := model.CheckEnds("road edge", int(u), int(v), g.NumVertices()); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if g.HasEdge(u, v) {
		return 0, fmt.Errorf("core: duplicate road edge %d-%d", u, v)
	}
	id, stale := g.AddEdge(u, v)
	e.dyn.roadEdges++
	e.Social.AddRoadEdge(e.Road.AddRoadEdge(id))
	if stale && e.poiLabels != nil {
		e.poiLabels = g.NewLabelTable(poiAttachments(e.DS))
	}
	return id, nil
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
