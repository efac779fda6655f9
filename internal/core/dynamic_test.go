package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// addRandomDelta grows the dataset through the engine: new POIs, new
// users (wired to existing users), and new edges between existing users.
func addRandomDelta(t *testing.T, e *Engine, seed int64, pois, users, edges int) {
	t.Helper()
	ds := e.DS
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < pois; i++ {
		eid := roadnet.EdgeID(rng.Intn(ds.Road.NumEdges()))
		at := ds.Road.AttachAt(eid, rng.Float64())
		kws := []int{rng.Intn(ds.NumTopics)}
		if rng.Float64() < 0.5 {
			kws = append(kws, rng.Intn(ds.NumTopics))
		}
		p := model.POI{
			ID: model.POIID(len(ds.POIs)), At: at,
			Loc: ds.Road.Location(at), Keywords: kws,
		}
		if err := e.AddPOI(p); err != nil {
			t.Fatalf("AddPOI: %v", err)
		}
	}
	for i := 0; i < users; i++ {
		eid := roadnet.EdgeID(rng.Intn(ds.Road.NumEdges()))
		at := ds.Road.AttachAt(eid, rng.Float64())
		w := make([]float64, ds.NumTopics)
		for f := range w {
			if rng.Float64() < 0.4 {
				w[f] = 0.3 + 0.7*rng.Float64()
			}
		}
		u := model.User{
			ID: socialnet.UserID(len(ds.Users)), At: at,
			Loc: ds.Road.Location(at), Interests: w,
		}
		if err := e.AddUser(u); err != nil {
			t.Fatalf("AddUser: %v", err)
		}
		// Wire the new user to an existing one so it is reachable.
		if _, err := e.AddFriendship(u.ID, socialnet.UserID(rng.Intn(int(u.ID)))); err != nil {
			t.Fatalf("AddFriendship: %v", err)
		}
	}
	for i := 0; i < edges; i++ {
		a := socialnet.UserID(rng.Intn(len(ds.Users)))
		b := socialnet.UserID(rng.Intn(len(ds.Users)))
		if a != b {
			if _, err := e.AddFriendship(a, b); err != nil {
				t.Fatalf("AddFriendship: %v", err)
			}
		}
	}
}

// The engine must stay oracle-exact through dynamic updates: after any
// mix of added POIs, users, and friendships, Query equals the brute force
// run over the grown dataset.
func TestDynamicUpdatesStayExact(t *testing.T) {
	for seed := int64(50); seed < 53; seed++ {
		ds := smallDataset(t, seed)
		e := buildEngine(t, ds, Options{})
		addRandomDelta(t, e, seed*7, 8, 6, 5)
		if e.PendingUpdates() == 0 {
			t.Fatal("expected pending updates")
		}
		oracle := &Baseline{DS: ds}
		params := []Params{
			{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct},
			{Gamma: 0.3, Tau: 3, Theta: 0.4, R: 1.5, Metric: MetricDotProduct},
		}
		for pi, p := range params {
			for _, uq := range []socialnet.UserID{1, 30, socialnet.UserID(len(ds.Users) - 1)} {
				got, _, err := e.Query(uq, p)
				if err != nil {
					t.Fatalf("seed %d params %d uq %d: %v", seed, pi, uq, err)
				}
				want, _ := oracle.Query(uq, p)
				if got.Found != want.Found {
					t.Fatalf("seed %d params %d uq %d: found=%v oracle=%v",
						seed, pi, uq, got.Found, want.Found)
				}
				if got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
					t.Fatalf("seed %d params %d uq %d: cost %v oracle %v (S=%v R=%v vs S=%v R=%v)",
						seed, pi, uq, got.MaxDist, want.MaxDist, got.S, got.R, want.S, want.R)
				}
			}
		}
	}
}

// A delta user can be the query issuer.
func TestDynamicDeltaIssuer(t *testing.T) {
	ds := smallDataset(t, 54)
	e := buildEngine(t, ds, Options{})
	addRandomDelta(t, e, 99, 3, 4, 0)
	uq := socialnet.UserID(len(ds.Users) - 1) // a delta user
	p := Params{Gamma: 0.1, Tau: 2, Theta: 0.2, R: 2, Metric: MetricDotProduct}
	got, _, err := e.Query(uq, p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (&Baseline{DS: ds}).Query(uq, p)
	if got.Found != want.Found || (got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6) {
		t.Fatalf("delta issuer: %+v vs oracle %+v", got, want)
	}
}

// New friendships can create answers that did not exist before.
func TestDynamicFriendshipEnablesAnswer(t *testing.T) {
	ds := smallDataset(t, 55)
	e := buildEngine(t, ds, Options{})
	// Find a pair of non-friends with high similarity, one of them the
	// issuer, such that tau=2 with a sky-high gamma only works through
	// that specific pair.
	var a, b socialnet.UserID = -1, -1
	bestScore := 0.0
	for i := 0; i < len(ds.Users); i++ {
		for j := i + 1; j < len(ds.Users); j++ {
			if ds.Social.AreFriends(socialnet.UserID(i), socialnet.UserID(j)) {
				continue
			}
			s := InterestScore(ds.Users[i].Interests, ds.Users[j].Interests)
			if s > bestScore {
				bestScore, a, b = s, socialnet.UserID(i), socialnet.UserID(j)
			}
		}
	}
	if a < 0 {
		t.Skip("no non-friend pair")
	}
	gamma := bestScore * 0.99
	p := Params{Gamma: gamma, Tau: 2, Theta: 0, R: 2, Metric: MetricDotProduct}
	before, _, err := e.Query(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddFriendship(a, b); err != nil {
		t.Fatal(err)
	}
	after, _, err := e.Query(a, p)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := (&Baseline{DS: ds}).Query(a, p)
	if after.Found != oracle.Found {
		t.Fatalf("after edge: found=%v oracle=%v", after.Found, oracle.Found)
	}
	if after.Found && math.Abs(after.MaxDist-oracle.MaxDist) > 1e-6 {
		t.Fatalf("after edge: cost %v oracle %v", after.MaxDist, oracle.MaxDist)
	}
	// The new edge can only add answers, never remove them.
	if before.Found && !after.Found {
		t.Error("adding an edge removed an answer")
	}
}

func TestDynamicValidation(t *testing.T) {
	ds := smallDataset(t, 56)
	e := buildEngine(t, ds, Options{})
	if err := e.AddPOI(model.POI{ID: 0}); err == nil {
		t.Error("wrong POI id should fail")
	}
	if err := e.AddPOI(model.POI{ID: model.POIID(len(ds.POIs))}); err == nil {
		t.Error("POI without keywords should fail")
	}
	if err := e.AddUser(model.User{ID: 0}); err == nil {
		t.Error("wrong user id should fail")
	}
	bad := model.User{ID: socialnet.UserID(len(ds.Users)), Interests: []float64{9}}
	if err := e.AddUser(bad); err == nil {
		t.Error("bad interest vector should fail")
	}
	if _, err := e.AddFriendship(0, 0); err == nil {
		t.Error("self-friendship should fail")
	}
	if _, err := e.AddFriendship(0, socialnet.UserID(len(ds.Users)+5)); err == nil {
		t.Error("out-of-range friendship should fail")
	}
	if e.PendingUpdates() != 0 {
		t.Errorf("failed updates must not count as pending: %d", e.PendingUpdates())
	}
}

// TestAddUserRejectsForeignDelta pins the user topic table's row = id
// invariant: once another engine over the same dataset has appended a
// user, this engine's table has no row for it, so its own AddUser must
// fail instead of filing the next user's interests under the wrong row.
func TestAddUserRejectsForeignDelta(t *testing.T) {
	ds := smallDataset(t, 57)
	a, b := buildEngine(t, ds, Options{}), buildEngine(t, ds, Options{})
	u := ds.Users[0]
	u.ID = socialnet.UserID(len(ds.Users))
	if err := a.AddUser(u); err != nil {
		t.Fatal(err)
	}
	u.ID++
	if err := b.AddUser(u); err == nil {
		t.Fatal("an engine whose table lacks the first delta user accepted the second")
	}
	if b.topics.rows() != len(ds.Users)-1 || len(ds.Users) != int(u.ID) {
		t.Fatalf("the rejected AddUser changed state: %d rows, %d users", b.topics.rows(), len(ds.Users))
	}
}

// TestAddPOIKeepsKeywordPruningSound pins Lemmas 1/6 under AddPOI: a POI
// appended after the build can carry a topic into the road ball of an
// indexed anchor whose stored keyword bound lacks it, and the anchor must
// then survive the traversal. For every indexed POI o and every topic no
// POI within Euclidean distance r of o carries (so no keyword bound at
// radius r may hold it before the update), a POI with that topic is added
// at either end of o's edge; every issuer with an interest in the topic
// must then get Baseline's answer. -short runs the first seed only.
func TestAddPOIKeepsKeywordPruningSound(t *testing.T) {
	params := []Params{
		{Gamma: 0, Tau: 1, Theta: 0.9, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.1, Tau: 2, Theta: 0.9, R: 2, Metric: MetricDotProduct},
	}
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		base := smallDataset(t, seed)
		for o := range base.POIs {
			near := make([]bool, base.NumTopics)
			for j := range base.POIs {
				if base.POIs[j].Loc.Dist(base.POIs[o].Loc) <= params[0].R {
					for _, k := range base.POIs[j].Keywords {
						near[k] = true
					}
				}
			}
			for f, held := range near {
				if held {
					continue
				}
				for _, pos := range []float64{0, 1} {
					// AddPOI touches only the POI slice of the dataset.
					ds := *base
					ds.POIs = slices.Clone(base.POIs)
					e := buildEngine(t, &ds, Options{})
					at := ds.Road.AttachAt(ds.POIs[o].At.Edge, pos)
					np := model.POI{ID: model.POIID(len(ds.POIs)), At: at, Loc: ds.Road.Location(at), Keywords: []int{f}}
					if err := e.AddPOI(np); err != nil {
						t.Fatal(err)
					}
					oracle := &Baseline{DS: &ds}
					for uq := range ds.Users {
						if ds.Users[uq].Interests[f] == 0 {
							continue
						}
						for _, p := range params {
							got, _, err := e.Query(socialnet.UserID(uq), p)
							if err != nil {
								t.Fatal(err)
							}
							want, _ := oracle.Query(socialnet.UserID(uq), p)
							if got.Found != want.Found || got.MaxDist != want.MaxDist || got.Anchor != want.Anchor {
								t.Fatalf("seed %d POI %d topic %d at t=%v, uq %d τ=%d: got found=%v cost=%v anchor=%d, Baseline found=%v cost=%v anchor=%d",
									seed, o, f, pos, uq, p.Tau, got.Found, got.MaxDist, got.Anchor, want.Found, want.MaxDist, want.Anchor)
							}
						}
					}
				}
			}
		}
	}
}

// A POI appended through another engine over the same dataset widens
// that engine's keyword rows only; this engine must stop trusting its own
// rows (keywordBoundsSafe) rather than drop an anchor the POI now serves.
// The case is TestAddPOIKeepsKeywordPruningSound's first failure at the
// commit before AddPOI widened the rows.
func TestForeignAddPOIDisablesKeywordPruning(t *testing.T) {
	ds := smallDataset(t, 1)
	a, b := buildEngine(t, ds, Options{}), buildEngine(t, ds, Options{})
	at := ds.Road.AttachAt(ds.POIs[0].At.Edge, 0)
	np := model.POI{ID: model.POIID(len(ds.POIs)), At: at, Loc: ds.Road.Location(at), Keywords: []int{0}}
	if err := a.AddPOI(np); err != nil {
		t.Fatal(err)
	}
	if b.keywordBoundsSafe() {
		t.Fatal("b trusts keyword rows that miss a's appended POI")
	}
	p := Params{Gamma: 0, Tau: 1, Theta: 0.9, R: 2, Metric: MetricDotProduct}
	got, _, err := b.Query(3, p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (&Baseline{DS: ds}).Query(3, p)
	if got.Found != want.Found || got.MaxDist != want.MaxDist || got.Anchor != want.Anchor {
		t.Fatalf("got found=%v cost=%v anchor=%d, Baseline found=%v cost=%v anchor=%d",
			got.Found, got.MaxDist, got.Anchor, want.Found, want.MaxDist, want.Anchor)
	}
}

// TestAddRoadEdgeGatesKeywordPruning pins the road-edge gate of Lemmas
// 1/6: an edge appended after the build can pull a POI, and its topics,
// into an indexed anchor's ball, so the keyword rows stop bounding the
// balls until Compact. For pairs of indexed POIs o, j where j carries a
// topic o's radius-r ball lacks, an edge between the ends of their edges
// that brings j within r of o is added; every issuer with an interest in
// the topic must then get Baseline's answer.
func TestAddRoadEdgeGatesKeywordPruning(t *testing.T) {
	p := Params{Gamma: 0, Tau: 1, Theta: 0.9, R: 3, Metric: MetricDotProduct}
	cases := 0
	for seed := int64(1); seed <= 3; seed++ {
		base := smallDataset(t, seed)
		e0 := buildEngine(t, base, Options{})
		g := base.Road
		// leg is the distance along a's edge from a to its end v.
		leg := func(a roadnet.Attach, v roadnet.VertexID) float64 {
			ed := g.EdgeAt(a.Edge)
			if v == ed.U {
				return a.T * ed.Weight
			}
			return (1 - a.T) * ed.Weight
		}
		for o := range base.POIs {
			held := make([]bool, base.NumTopics)
			for _, m := range e0.ballAround(model.POIID(o), p.R, nil) {
				for _, k := range base.POIs[m].Keywords {
					held[k] = true
				}
			}
		pairs:
			for j := range base.POIs {
				f := -1
				for _, k := range base.POIs[j].Keywords {
					if !held[k] {
						f = k
					}
				}
				if f < 0 {
					continue
				}
				oa, ja := base.POIs[o].At, base.POIs[j].At
				oe, je := g.EdgeAt(oa.Edge), g.EdgeAt(ja.Edge)
				for _, a := range []roadnet.VertexID{oe.U, oe.V} {
					for _, b := range []roadnet.VertexID{je.U, je.V} {
						// The new edge's path from o to j, an upper bound
						// on their new road distance.
						path := leg(oa, a) + g.Vertex(a).Dist(g.Vertex(b)) + leg(ja, b)
						if a == b || g.HasEdge(a, b) || path > p.R {
							continue
						}
						cases++
						ds := smallDataset(t, seed)
						e := buildEngine(t, ds, Options{})
						if _, err := e.AddRoadEdge(a, b); err != nil {
							t.Fatal(err)
						}
						oracle := &Baseline{DS: ds}
						for uq := range ds.Users {
							if ds.Users[uq].Interests[f] == 0 {
								continue
							}
							got, _, err := e.Query(socialnet.UserID(uq), p)
							if err != nil {
								t.Fatal(err)
							}
							want, _ := oracle.Query(socialnet.UserID(uq), p)
							if got.Found != want.Found || got.MaxDist != want.MaxDist || got.Anchor != want.Anchor {
								t.Fatalf("seed %d edge %d-%d (POI %d to %d, topic %d), uq %d: got found=%v cost=%v anchor=%d, Baseline found=%v cost=%v anchor=%d",
									seed, a, b, o, j, f, uq, got.Found, got.MaxDist, got.Anchor, want.Found, want.MaxDist, want.Anchor)
							}
						}
						break pairs
					}
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no edge brought a new topic into a ball")
	}
}
