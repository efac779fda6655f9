package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// TestEngineOracleFuzz cross-checks the engine against the brute-force
// oracle on many random tiny datasets and random parameters — the widest
// correctness net in the suite. Each failure would print enough to
// reproduce (seed + params + issuer).
func TestEngineOracleFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		seed := rng.Int63n(1 << 30)
		ds, err := gen.Synthetic(gen.Config{
			Name: "fuzz", Seed: seed,
			RoadVertices: 80 + rng.Intn(80),
			SocialUsers:  30 + rng.Intn(40),
			POIs:         20 + rng.Intn(30),
			Topics:       4 + rng.Intn(6),
		})
		if err != nil {
			t.Fatalf("trial %d seed %d: %v", trial, seed, err)
		}
		e := buildEngine(t, ds, Options{})
		oracle := &Baseline{DS: ds}
		for q := 0; q < 3; q++ {
			p := Params{
				Gamma:  rng.Float64() * 0.6,
				Tau:    1 + rng.Intn(5),
				Theta:  rng.Float64() * 0.6,
				R:      0.5 + rng.Float64()*3,
				Metric: MetricDotProduct,
			}
			uq := socialnet.UserID(rng.Intn(len(ds.Users)))
			got, _, err := e.Query(uq, p)
			if err != nil {
				t.Fatalf("trial %d seed %d uq %d %s: %v", trial, seed, uq, p, err)
			}
			want, _ := oracle.Query(uq, p)
			if got.Found != want.Found {
				t.Fatalf("trial %d seed %d uq %d %s: found=%v oracle=%v",
					trial, seed, uq, p, got.Found, want.Found)
			}
			if got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
				t.Fatalf("trial %d seed %d uq %d %s: cost %v oracle %v",
					trial, seed, uq, p, got.MaxDist, want.MaxDist)
			}
		}
	}
}

// TestEngineRadiusBoundaries exercises the exact RMin/RMax radii, where
// the radius validation edge cases live.
func TestEngineRadiusBoundaries(t *testing.T) {
	ds := smallDataset(t, 31)
	e := buildEngine(t, ds, Options{})
	oracle := &Baseline{DS: ds}
	for _, r := range []float64{0.5, 1.0, 4.0} { // RMin, a radius between, RMax
		p := Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: r, Metric: MetricDotProduct}
		got, _, err := e.Query(9, p)
		if err != nil {
			t.Fatalf("r=%v: %v", r, err)
		}
		want, _ := oracle.Query(9, p)
		if got.Found != want.Found || (got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6) {
			t.Fatalf("r=%v: %+v vs oracle %+v", r, got, want)
		}
	}
}

// TestEngineIsolatedIssuer: a user with no friends can only form groups of
// size 1.
func TestEngineIsolatedIssuer(t *testing.T) {
	ds := smallDataset(t, 32)
	// Find (or fabricate conceptually) the least-connected user. Synthetic
	// generation guarantees degree >= 1, so test via tau > reachable set:
	// pick any user and ask for an impossible group size within 1 hop.
	e := buildEngine(t, ds, Options{})
	var uq socialnet.UserID
	minDeg := 1 << 30
	for u := 0; u < ds.Social.NumUsers(); u++ {
		if d := ds.Social.Degree(socialnet.UserID(u)); d < minDeg {
			minDeg = d
			uq = socialnet.UserID(u)
		}
	}
	reach := len(ds.Social.WithinHops(uq, 3))
	p := Params{Gamma: 0, Tau: reach + 1, Theta: 0, R: 2, Metric: MetricDotProduct}
	if p.Tau > 12 {
		t.Skip("dataset too connected for this check")
	}
	res, _, err := e.Query(uq, p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (&Baseline{DS: ds}).Query(uq, p)
	if res.Found != want.Found {
		t.Fatalf("found=%v oracle=%v", res.Found, want.Found)
	}
}

// TestEngineConcurrentQueries: an Engine may be shared across goroutines
// (queries serialize internally); results must match the sequential run.
func TestEngineConcurrentQueries(t *testing.T) {
	ds := smallDataset(t, 37)
	e := buildEngine(t, ds, Options{})
	p := Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 2, Metric: MetricDotProduct}
	users := []socialnet.UserID{0, 5, 10, 15, 20, 25, 30, 35}
	sequential := make([]Result, len(users))
	for i, u := range users {
		r, _, err := e.Query(u, p)
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = r
	}
	results := make([]Result, len(users))
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func(i int, u socialnet.UserID) {
			defer wg.Done()
			r, _, err := e.Query(u, p)
			results[i], errs[i] = r, err
		}(i, u)
	}
	wg.Wait()
	for i := range users {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d: %v", i, errs[i])
		}
		if results[i].Found != sequential[i].Found ||
			(results[i].Found && math.Abs(results[i].MaxDist-sequential[i].MaxDist) > 1e-12) {
			t.Fatalf("concurrent result %d diverged", i)
		}
	}
}

// Tie injections FuzzEngineMatchesBaseline applies to its datasets after
// generation, one bit each of its ties input.
const (
	// tieLattice moves the road vertices onto an integer lattice (the
	// plane doubled, then rounded): axis-parallel roads get integer
	// weights and many path sums tie exactly.
	tieLattice = 1 << iota
	// tieSharedAttach gives every fourth POI the attachment of the one
	// before it: anchors at distance zero from each other.
	tieSharedAttach
	// tieCopiedInterests copies every third user's interest vector to
	// their first friend: exact score ties inside one group.
	tieCopiedInterests
	// tieGammaAtScore sets γ to the issuer's realised score with one of
	// their friends, so that pair sits exactly on the threshold.
	tieGammaAtScore
)

// tiedDataset is smallDataset(seed) with the ties of the ties bitmask
// injected.
func tiedDataset(t testing.TB, seed int64, ties uint8) *model.Dataset {
	ds := smallDataset(t, seed)
	if ties&tieLattice != 0 {
		ds.Road = latticeRoad(ds.Road)
		for i := range ds.Users {
			ds.Users[i].Loc = ds.Road.Location(ds.Users[i].At)
		}
		for i := range ds.POIs {
			ds.POIs[i].Loc = ds.Road.Location(ds.POIs[i].At)
		}
	}
	if ties&tieSharedAttach != 0 {
		for i := 1; i < len(ds.POIs); i += 4 {
			ds.POIs[i].At, ds.POIs[i].Loc = ds.POIs[i-1].At, ds.POIs[i-1].Loc
		}
	}
	if ties&tieCopiedInterests != 0 {
		for u := 0; u < len(ds.Users); u += 3 {
			if fs := ds.Social.Friends(socialnet.UserID(u)); len(fs) > 0 {
				ds.Users[fs[0]].Interests = slices.Clone(ds.Users[u].Interests)
			}
		}
	}
	return ds
}

// latticeRoad rebuilds g with every vertex at its doubled position rounded
// to integers, keeping vertex and edge ids (so attachments stay valid). A
// vertex whose lattice point is taken keeps its doubled position, so no
// two vertices coincide. Weights stay Euclidean, so every Euclidean lower
// bound the indexes use stays sound.
func latticeRoad(g *roadnet.Graph) *roadnet.Graph {
	out := roadnet.NewGraph(g.NumVertices(), g.NumEdges())
	taken := make(map[geo.Point]bool, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		p := g.Vertex(roadnet.VertexID(v))
		p = geo.Pt(2*p.X, 2*p.Y)
		if q := geo.Pt(math.Round(p.X), math.Round(p.Y)); !taken[q] {
			p = q
		}
		taken[p] = true
		out.AddVertex(p)
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.EdgeAt(roadnet.EdgeID(id))
		out.AddEdge(e.U, e.V)
	}
	return out
}

// unitInterval folds a fuzzed float into [0, 1): NaN and ±Inf read as 0.
func unitInterval(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	_, f := math.Modf(math.Abs(x))
	return f
}

// Road mutations FuzzEngineMatchesBaseline applies once its engines are
// built, each through its own engine (its road input, mod 3).
const (
	roadNone = iota
	// roadPendant adds a vertex beside the first end of the issuer's home
	// edge and joins it to that end.
	roadPendant
	// roadChord joins that end to the vertex within Euclidean distance 2
	// whose road distance exceeds the straight line most (chordTarget).
	roadChord
)

// mutateRoad applies road mutation kind next to uq's home through e.
func mutateRoad(t *testing.T, e *Engine, uq socialnet.UserID, kind uint8) {
	g := e.DS.Road
	v := g.EdgeAt(e.DS.Users[uq].At.Edge).U
	switch kind % 3 {
	case roadPendant:
		nv, err := e.AddRoadVertex(g.Vertex(v).Add(geo.Pt(0.3, 0.2)))
		if err == nil {
			_, err = e.AddRoadEdge(v, nv)
		}
		if err != nil {
			t.Fatal(err)
		}
	case roadChord:
		if w := chordTarget(g, v, 2); w >= 0 {
			if _, err := e.AddRoadEdge(v, w); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzEngineMatchesBaseline runs the engine against the brute-force
// Baseline on tiny generated datasets with deliberate ties (tiedDataset),
// under the plain graph and under hub labels, optionally after a road
// edge (mutateRoad). Query's cost and QueryTopK's costs must match
// Baseline's top-k rank by rank, and Parallelism 4 must return
// bit-identical answers (found, cost bits, anchor, S and R) to
// Parallelism 1. Each engine runs over its own copy of the dataset and
// takes the road edge through itself: a dataset has one writer, the one
// engine over it (the facade refuses updates on a network two DBs share,
// TestSharedNetworkIsReadOnly in the root package). The seed corpus under
// testdata/fuzz covers the oracle gates' datasets and both road
// mutations, so the plain test run replays it; `make fuzz-smoke` explores
// further.
func FuzzEngineMatchesBaseline(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ties uint8, gamma, theta, r float64, tau, k, metric uint8, issuer uint16, road uint8) {
		ds := tiedDataset(t, seed, ties)
		uq := socialnet.UserID(int(issuer) % len(ds.Users))
		p := Params{
			Gamma:  unitInterval(gamma) * 0.6,
			Tau:    1 + int(tau%5),
			Theta:  unitInterval(theta) * 0.6,
			R:      0.5 + unitInterval(r)*3.5,
			Metric: InterestMetric(metric % 3),
		}
		if fs := ds.Social.Friends(uq); ties&tieGammaAtScore != 0 && len(fs) > 0 {
			p.Gamma = Similarity(p.Metric, ds.Users[uq].Interests, ds.Users[fs[int(issuer)%len(fs)]].Interests)
		}
		topK := 1 + int(k%4)
		for _, labels := range []bool{false, true} {
			name := fmt.Sprintf("seed %d ties %04b road %d labels %v uq %d k %d %s", seed, ties, road%3, labels, uq, topK, p)
			var engines []*Engine
			for _, par := range []int{1, 4} {
				// A fresh copy per engine: each takes the road edge itself.
				ds = tiedDataset(t, seed, ties)
				if labels {
					ds.Road.SetDistanceOracle(hl.Build(ds.Road))
				}
				e := buildEngine(t, ds, Options{Parallelism: par})
				mutateRoad(t, e, uq, road)
				engines = append(engines, e)
			}
			want, _ := (&Baseline{DS: ds}).QueryTopK(uq, p, topK)
			var runs [][]Result
			for i, e := range engines {
				par := []int{1, 4}[i]
				one, _, err := e.Query(uq, p)
				if err != nil {
					t.Fatalf("%s P=%d: %v", name, par, err)
				}
				if one.Found != (len(want) > 0) || (one.Found && !sameDist(one.MaxDist, want[0].MaxDist)) {
					t.Fatalf("%s P=%d: Query %+v, Baseline %+v", name, par, one, want)
				}
				top, _, err := e.QueryTopK(uq, p, topK)
				if err != nil {
					t.Fatalf("%s P=%d: %v", name, par, err)
				}
				if len(top) != len(want) {
					t.Fatalf("%s P=%d: %d results, Baseline %d", name, par, len(top), len(want))
				}
				for i := range top {
					if !sameDist(top[i].MaxDist, want[i].MaxDist) {
						t.Fatalf("%s P=%d: rank %d cost %v, Baseline %v", name, par, i, top[i].MaxDist, want[i].MaxDist)
					}
				}
				runs = append(runs, append([]Result{one}, top...))
			}
			if !slices.EqualFunc(runs[0], runs[1], sameAnswer) {
				t.Fatalf("%s: Parallelism 4 returned %+v, Parallelism 1 %+v", name, runs[1], runs[0])
			}
		}
	})
}

// sameAnswer reports bit-identical answers: found, cost bits, anchor, S
// and R.
func sameAnswer(a, b Result) bool {
	return a.Found == b.Found && math.Float64bits(a.MaxDist) == math.Float64bits(b.MaxDist) &&
		a.Anchor == b.Anchor && slices.Equal(a.S, b.S) && slices.Equal(a.R, b.R)
}
