package core

import (
	"math"
	"math/rand"
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
