package core

import (
	"fmt"
	"math"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// insertDataset is a dataset of the benchmark twin's size under hub
// labels, and the issuers the tests query: the first six live next to the
// road edges addPendingEdges lays.
func insertDataset(t *testing.T) (*model.Dataset, []socialnet.UserID) {
	t.Helper()
	ds, err := gen.Synthetic(gen.Config{
		Name: "pending", Seed: 23,
		RoadVertices: 600, SocialUsers: 600, POIs: 200, Topics: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	var issuers []socialnet.UserID
	for u := 0; u < len(ds.Users) && len(issuers) < 24; u += 25 {
		issuers = append(issuers, socialnet.UserID(u))
	}
	return ds, issuers
}

// pendingTwin is insertDataset's dataset and issuers with an engine that
// has laid the road edges of addPendingEdges.
func pendingTwin(t *testing.T, par int) (*model.Dataset, *Engine, []socialnet.UserID) {
	t.Helper()
	ds, issuers := insertDataset(t)
	e := buildEngine(t, ds, Options{Parallelism: par})
	addPendingEdges(t, e, issuers[:6])
	return ds, e, issuers
}

// addPendingEdges lays four pendant edges and two chords through e, next to
// the given issuers' homes, and checks that the hub labels and the
// engine's derived road state followed them.
func addPendingEdges(t *testing.T, e *Engine, near []socialnet.UserID) {
	t.Helper()
	g := e.DS.Road
	for i, u := range near {
		v := g.EdgeAt(e.DS.Users[u].At.Edge).U
		if i < 4 {
			nv, err := e.AddRoadVertex(g.Vertex(v).Add(geo.Pt(0.2, 0.1)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddRoadEdge(v, nv); err != nil {
				t.Fatal(err)
			}
			continue
		}
		best := chordTarget(g, v, 2)
		if best < 0 {
			t.Fatalf("no chord candidate near vertex %d", v)
		}
		if _, err := e.AddRoadEdge(v, best); err != nil {
			t.Fatal(err)
		}
	}
	if s := g.OverlayStats(); s.NewEdges != len(near) || !g.HasLabels() || e.poiLabels == nil {
		t.Fatalf("after %d road edges: counters %+v, labels %v, label table %v",
			len(near), s, g.HasLabels(), e.poiLabels != nil)
	}
}

// chordTarget returns the vertex within Euclidean distance `within` of v,
// not v nor already adjacent, whose road distance from v exceeds the
// straight line most: the chord that shortens the most paths. -1 when
// there is none.
func chordTarget(g *roadnet.Graph, v roadnet.VertexID, within float64) roadnet.VertexID {
	road := g.Dijkstra(v)
	best, gain := roadnet.VertexID(-1), 0.0
	for w := range road {
		wid := roadnet.VertexID(w)
		d := g.Vertex(v).Dist(g.Vertex(wid))
		if wid == v || d > within || g.HasEdge(v, wid) {
			continue
		}
		if road[w]-d > gain {
			best, gain = wid, road[w]-d
		}
	}
	return best
}

// TestPendingEdgesMatchBaseline is the road-insert equality gate: after
// four pendant edges and two chords, Query and top-3 equal Baseline at
// Parallelism 1 and 2, and pruning stays live — the anchor stream takes in
// fewer anchors than there are POIs, and Lemmas 1 and 5 prune.
func TestPendingEdgesMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force Baseline over a 600-user twin")
	}
	shapes := []Params{
		{Gamma: 0.3, Tau: 3, Theta: 0.4, R: 1.5, Metric: MetricDotProduct},
		{Gamma: 0.2, Tau: 2, Theta: 0.5, R: 3, Metric: MetricDotProduct},
	}
	var answers [2][]Result
	for pi, par := range []int{1, 2} {
		ds, e, issuers := pendingTwin(t, par)
		oracle := &Baseline{DS: ds}
		var cand, pois, match, dist int
		for si, p := range shapes {
			for _, uq := range issuers {
				label := fmt.Sprintf("P=%d shape %d uq %d", par, si, uq)
				got, st, err := e.QueryTopK(uq, p, 3)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, _ := oracle.QueryTopK(uq, p, 3)
				sameAnswers(t, label, got, want)
				one, _, err := e.Query(uq, p)
				if err != nil || one.Found != (len(want) > 0) || (one.Found && one.Anchor != want[0].Anchor) {
					t.Fatalf("%s: Query = %+v (%v), Baseline top-1 %+v", label, one, err, want)
				}
				answers[pi] = append(answers[pi], got...)
				cand, pois = cand+st.CandAnchors, pois+st.RNPOIsTotal
				match += st.RNObjPrunedMatch
				dist += st.RNObjPrunedDist
			}
		}
		if cand >= pois || match == 0 || dist == 0 {
			t.Fatalf("P=%d: %d anchors of %d POIs entered the stream, %d pruned by Lemma 1, %d by Lemma 5: pruning must stay live after road inserts",
				par, cand, pois, match, dist)
		}
	}
	sameResults(t, "P=1 vs P=2", answers[1], answers[0])
}

// TestObjectsOnNewRoadEdge: a POI and a user added on a new road edge get
// a pivot vector and a label-table row like any other, the label table
// stays valid, and queries by the new user and the issuers next to the
// edge equal Baseline.
func TestObjectsOnNewRoadEdge(t *testing.T) {
	ds, e, issuers := pendingTwin(t, 1)
	g := ds.Road
	var newEdge roadnet.EdgeID = -1
	for id := g.NumEdges() - 1; id >= 0; id-- {
		if ed := g.EdgeAt(roadnet.EdgeID(id)); g.Degree(ed.U) == 1 || g.Degree(ed.V) == 1 {
			newEdge = roadnet.EdgeID(id)
			break
		}
	}
	at := g.AttachAt(newEdge, 0.5)
	poi := model.POI{ID: model.POIID(len(ds.POIs)), At: at, Loc: g.Location(at), Keywords: []int{0, 1}}
	if err := e.AddPOI(poi); err != nil {
		t.Fatal(err)
	}
	w := make([]float64, ds.NumTopics)
	for f := range w {
		w[f] = 0.6
	}
	user := model.User{ID: socialnet.UserID(len(ds.Users)), At: g.AttachAt(newEdge, 0.25), Interests: w}
	user.Loc = g.Location(user.At)
	if err := e.AddUser(user); err != nil {
		t.Fatal(err)
	}
	for _, f := range issuers[:3] {
		if _, err := e.AddFriendship(user.ID, f); err != nil {
			t.Fatal(err)
		}
	}
	if e.poiRDOf(poi.ID) == nil || e.userRDOf(user.ID) == nil {
		t.Fatal("an object on a new road edge has no pivot vector")
	}
	tab := e.poiLabels
	if tab == nil {
		t.Fatal("adding objects on a new road edge dropped the label table")
	}
	var row roadnet.HubLabel
	g.AttachLabel(poi.At, &row)
	if row.Len() == 0 {
		t.Fatal("a POI on a new road edge has an empty label")
	}
	lbl := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(lbl)
	g.AttachLabel(user.At, lbl)
	d := g.RowDistsCk(lbl, user.At, tab, []int32{int32(poi.ID)}, math.Inf(1), make([]float64, 1), nil)[0]
	if want := g.DistAttach(user.At, poi.At); !sameDist(d, want) {
		t.Fatalf("label-table distance from the new user to the new POI %v, want %v", d, want)
	}
	oracle := &Baseline{DS: ds}
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	for _, uq := range append([]socialnet.UserID{user.ID}, issuers[:6]...) {
		got, _, err := e.QueryTopK(uq, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracle.QueryTopK(uq, p, 3)
		sameAnswers(t, fmt.Sprintf("uq %d", uq), got, want)
	}
}

// sameAnswers compares an engine top-k with Baseline's: the same anchors,
// groups and balls, costs equal up to float association order.
func sameAnswers(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, Baseline %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Anchor != w.Anchor || math.Abs(g.MaxDist-w.MaxDist) > 1e-9*math.Max(1, w.MaxDist) ||
			fmt.Sprint(g.S, g.R) != fmt.Sprint(w.S, w.R) {
			t.Fatalf("%s: result %d = anchor %d cost %v S %v R %v, Baseline anchor %d cost %v S %v R %v",
				label, i, g.Anchor, g.MaxDist, g.S, g.R, w.Anchor, w.MaxDist, w.S, w.R)
		}
	}
}
