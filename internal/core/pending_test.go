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

// pendingTwin is a dataset of the benchmark twin's size under hub labels,
// its engine, and the issuers the test queries: the first ones live next
// to the pending road edges addPendingEdges lays.
func pendingTwin(t *testing.T, par int) (*model.Dataset, *Engine, []socialnet.UserID) {
	t.Helper()
	ds, err := gen.Synthetic(gen.Config{
		Name: "pending", Seed: 23,
		RoadVertices: 600, SocialUsers: 600, POIs: 200, Topics: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	e := buildEngine(t, ds, Options{Parallelism: par})
	var issuers []socialnet.UserID
	for u := 0; u < len(ds.Users) && len(issuers) < 24; u += 25 {
		issuers = append(issuers, socialnet.UserID(u))
	}
	addPendingEdges(t, e, issuers[:6])
	return ds, e, issuers
}

// addPendingEdges lays four pendant edges and two chords through e, next to
// the given issuers' homes, and checks that they are pending.
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
	if g.PendingEdges() != len(near) || !g.OverlayStats().Active || !e.DS.Road.HasLabels() {
		t.Fatalf("%d pending edges (want %d), overlay %+v", g.PendingEdges(), len(near), g.OverlayStats())
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

// TestPendingEdgesMatchBaseline is the clearance rule's equality gate: with
// four pendant edges and two chords pending, Query and top-3 equal
// Baseline at Parallelism 1 and 2, and pruning stays live — the anchor
// stream takes in fewer anchors than there are POIs, Lemma 1 prunes, and
// some anchors near the new edges take the overlay path.
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
		var cand, pois, match, near int
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
				near += st.AnchorsNearPortal
			}
		}
		if cand >= pois || match == 0 || near == 0 {
			t.Fatalf("P=%d: %d anchors of %d POIs entered the stream, %d pruned by Lemma 1, %d near a portal: pruning must stay live under pending edges",
				par, cand, pois, match, near)
		}
	}
	sameResults(t, "P=1 vs P=2", answers[1], answers[0])
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
