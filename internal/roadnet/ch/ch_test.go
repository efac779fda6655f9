package ch

import (
	"math"
	"math/rand"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
)

// randomGraph builds a random road network with n vertices and roughly
// density·n edges. With connect=true a random spanning tree guarantees a
// single component; otherwise the graph usually splits into several,
// exercising the +Inf unreachable paths.
func randomGraph(t *testing.T, rng *rand.Rand, n int, density float64, connect bool) *roadnet.Graph {
	t.Helper()
	g := roadnet.NewGraph(n, int(density*float64(n)))
	for i := 0; i < n; i++ {
		g.AddVertex(geo.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	if connect {
		for i := 1; i < n; i++ {
			g.AddEdge(roadnet.VertexID(rng.Intn(i)), roadnet.VertexID(i))
		}
	}
	extra := int(density * float64(n))
	for i := 0; i < extra; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			g.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v))
		}
	}
	return g
}

// near reports approximate equality: CH distances sum shortcut weights in a
// different association order than Dijkstra's left-to-right accumulation,
// so values can differ by a few ULPs on float edge weights.
func near(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestOracleMatchesDijkstra cross-checks every CH query shape against the
// plain searches on random connected and disconnected graphs.
func TestOracleMatchesDijkstra(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		density float64
		connect bool
	}{
		{"connected-sparse", 60, 1.2, true},
		{"connected-dense", 40, 3.0, true},
		{"disconnected", 80, 0.4, false},
		{"tiny", 3, 1.0, true},
		{"single-vertex", 1, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed*7919 + 13))
				g := randomGraph(t, rng, tc.n, tc.density, tc.connect)
				o := Build(g)
				n := g.NumVertices()

				// SeedDistances (bounded and unbounded) vs ground truth.
				for trial := 0; trial < 4; trial++ {
					src := roadnet.VertexID(rng.Intn(n))
					want := g.Dijkstra(src)
					targets := make([]roadnet.VertexID, 0, 8)
					for i := 0; i < 8; i++ {
						targets = append(targets, roadnet.VertexID(rng.Intn(n)))
					}
					for _, bound := range []float64{math.Inf(1), 40, 5} {
						got := o.SeedDistances([]roadnet.Seed{{Vertex: src}}, targets, bound)
						for i, tv := range targets {
							w := want[tv]
							if w > bound {
								w = math.Inf(1)
							}
							if !near(w, got[i]) {
								t.Fatalf("seed %d SeedDistances(src=%d, t=%d, bound=%v) = %v, want %v",
									seed, src, tv, bound, got[i], w)
							}
						}
					}
				}
			}
		})
	}
}

// TestGraphDelegation verifies the Graph-level attachment shapes produce
// identical answers with and without the oracle attached, covering the
// same-edge direct route and unreachable candidates.
func TestGraphDelegation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed*104729 + 7))
		connect := seed%2 == 0
		g := randomGraph(t, rng, 50, 1.0, connect)
		o := Build(g)

		randAttach := func() roadnet.Attach {
			return g.AttachAt(roadnet.EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
		}
		a := randAttach()
		sameEdge := roadnet.Attach{Edge: a.Edge, T: rng.Float64()}
		cands := []roadnet.Attach{sameEdge, a}
		for i := 0; i < 12; i++ {
			cands = append(cands, randAttach())
		}

		g.SetDistanceOracle(nil)
		wantAttach := make([]float64, len(cands))
		for i, c := range cands {
			wantAttach[i] = g.DistAttach(a, c)
		}
		wantMany := g.DistAttachMany(a, cands)
		wantWithin := g.DistAttachWithin(a, 12, cands)

		g.SetDistanceOracle(o)
		for i, c := range cands {
			if got := g.DistAttach(a, c); !near(got, wantAttach[i]) {
				t.Fatalf("seed %d DistAttach cand %d = %v, want %v", seed, i, got, wantAttach[i])
			}
		}
		gotMany := g.DistAttachMany(a, cands)
		gotWithin := g.DistAttachWithin(a, 12, cands)
		for i := range cands {
			if !near(gotMany[i], wantMany[i]) {
				t.Fatalf("seed %d DistAttachMany[%d] = %v, want %v", seed, i, gotMany[i], wantMany[i])
			}
			if !near(gotWithin[i], wantWithin[i]) {
				t.Fatalf("seed %d DistAttachWithin[%d] = %v, want %v", seed, i, gotWithin[i], wantWithin[i])
			}
		}
	}
}

// TestOracleExactOnIntegerWeights pins bit-exact equality where float
// association order cannot interfere: on a grid whose edge weights are
// exactly representable, the CH's many-to-many kernel over every vertex
// must reproduce Dijkstra bit for bit.
func TestOracleExactOnIntegerWeights(t *testing.T) {
	const side = 8
	g := roadnet.NewGraph(side*side, 2*side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			g.AddVertex(geo.Pt(float64(x), float64(y)))
		}
	}
	id := func(x, y int) roadnet.VertexID { return roadnet.VertexID(y*side + x) }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				g.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < side {
				g.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	o := Build(g)
	targets := make([]roadnet.VertexID, side*side)
	for v := range targets {
		targets[v] = roadnet.VertexID(v)
	}
	for src := 0; src < side*side; src += 5 {
		want := g.Dijkstra(roadnet.VertexID(src))
		got := o.SeedDistances([]roadnet.Seed{{Vertex: roadnet.VertexID(src)}}, targets, math.Inf(1))
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("grid SeedDistances(%d)[%d] = %v, want %v (must be bit-exact)", src, v, got[v], want[v])
			}
		}
	}
}

// TestOracleSurvivesMutation: a new vertex leaves the CH attached (no
// query can reach an isolated vertex), and the first new edge detaches
// it — a CH has no update — so plain Dijkstra answers for the grown graph.
func TestOracleSurvivesMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(t, rng, 20, 1.0, true)
	g.SetDistanceOracle(Build(g))
	if g.Oracle() == nil {
		t.Fatal("oracle not attached")
	}
	v := g.AddVertex(geo.Pt(200, 200))
	if g.Oracle() == nil {
		t.Fatal("AddVertex must keep the CH attached")
	}
	e, _ := g.AddEdge(v, 0)
	if g.Oracle() != nil {
		t.Fatal("a new edge must detach the CH")
	}
	if s := g.OverlayStats(); !s.Active || s.NewVerts != 1 || s.NewEdges != 1 || s.Portals != 2 {
		t.Fatalf("insert counters after detaching: %+v", s)
	}
	d := g.DistAttach(g.AttachVertex(0), g.AttachAt(e, 0))
	if want := g.Vertex(0).Dist(g.Vertex(v)); d != want {
		t.Fatalf("distance to the new vertex %v, want the new edge %v", d, want)
	}
}
