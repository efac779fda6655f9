package hl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/snap"
)

// unitGrid is a k×k grid of unit edges: every pair has many shortest paths
// of exactly equal length, the case a rank-restricted update must get
// right without a canonical path.
func unitGrid(k int) *roadnet.Graph {
	g := roadnet.NewGraph(k*k, 2*k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			g.AddVertex(geo.Pt(float64(x), float64(y)))
		}
	}
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			v := roadnet.VertexID(y*k + x)
			if x+1 < k {
				g.AddEdge(v, v+1)
			}
			if y+1 < k {
				g.AddEdge(v, v+roadnet.VertexID(k))
			}
		}
	}
	return g
}

// checkAllPairs compares every pair's label distance with Dijkstra on the
// grown graph and checks the store through a codec round trip, whose
// decoder enforces the layout invariants (hubs ascending and at or below
// the owner's rank position, self-entry last).
func checkAllPairs(t *testing.T, g *roadnet.Graph, o *Oracle, tag string) {
	t.Helper()
	n := g.NumVertices()
	if o.NumVertices() != n {
		t.Fatalf("%s: oracle covers %d vertices, graph has %d", tag, o.NumVertices(), n)
	}
	all := make([]roadnet.VertexID, n)
	for v := range all {
		all[v] = roadnet.VertexID(v)
	}
	for s := 0; s < n; s++ {
		want := g.Dijkstra(roadnet.VertexID(s))
		got := o.SeedDistances([]roadnet.Seed{{Vertex: roadnet.VertexID(s)}}, all, math.Inf(1))
		for v := range want {
			if !near(got[v], want[v]) {
				t.Fatalf("%s: dist(%d,%d) = %v, Dijkstra %v", tag, s, v, got[v], want[v])
			}
		}
	}
	var e snap.Enc
	o.Encode(&e)
	re, err := Decode(&snap.Dec{B: e.B})
	if err != nil {
		t.Fatalf("%s: updated store fails its invariants: %v", tag, err)
	}
	if re.NumLabelEntries() != o.NumLabelEntries() {
		t.Fatalf("%s: %d live entries, %d written", tag, o.NumLabelEntries(), re.NumLabelEntries())
	}
}

// insertRandom adds one road insert to g, whose attached oracle follows
// it: a pendant vertex beside a random vertex, a chord between two random
// vertices, or a second edge to the newest vertex.
func insertRandom(rng *rand.Rand, g *roadnet.Graph) string {
	n := g.NumVertices()
	switch rng.Intn(3) {
	case 0:
		u := roadnet.VertexID(rng.Intn(n))
		p := g.Vertex(u).Add(geo.Pt(rng.Float64()*2-1, rng.Float64()*2-1))
		v := g.AddVertex(p)
		g.AddEdge(u, v)
		return "pendant"
	case 1:
		u, v := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			return "none"
		}
		g.AddEdge(u, v)
		return "chord"
	}
	last := roadnet.VertexID(n - 1)
	u := roadnet.VertexID(rng.Intn(n))
	if u == last || g.HasEdge(u, last) {
		return "none"
	}
	g.AddEdge(u, last)
	return "second edge"
}

// TestLabelsExactUnderInserts is the property test of the update
// (update.go): on random graphs, disconnected ones included, and on tied
// unit grids, every pair agrees with Dijkstra after every pendant vertex,
// chord and second edge to a new vertex, and the store keeps its layout.
func TestLabelsExactUnderInserts(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, shape := range []string{"random", "disconnected", "grid"} {
			rng := rand.New(rand.NewSource(seed))
			var g *roadnet.Graph
			switch shape {
			case "random":
				g = randomGraph(t, rng, 40, 1.0, true)
			case "disconnected":
				g = randomGraph(t, rng, 40, 0.6, false)
			case "grid":
				g = unitGrid(6)
			}
			o := Build(g)
			g.SetDistanceOracle(o)
			checkAllPairs(t, g, o, fmt.Sprintf("seed %d %s built", seed, shape))
			for step := 0; step < 25; step++ {
				kind := insertRandom(rng, g)
				if g.Oracle() != o {
					t.Fatal("a road insert detached the hub labels")
				}
				checkAllPairs(t, g, o, fmt.Sprintf("seed %d %s step %d (%s)", seed, shape, step, kind))
			}
		}
	}
}

// TestPendantTouchesNoOldLabel: a pendant vertex gets the label of its
// neighbour shifted by the edge, plus its self-entry, and no other label
// changes, so the insert reports label tables built before as current; a
// shortening chord reports them stale.
func TestPendantTouchesNoOldLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(t, rng, 50, 1.2, true)
	o := Build(g)
	g.SetDistanceOracle(o)
	before := o.NumLabelEntries()
	u := roadnet.VertexID(7)
	hubs, _ := o.label(int32(u))
	size := len(hubs)
	v := g.AddVertex(g.Vertex(u).Add(geo.Pt(0.5, 0.5)))
	if got := o.NumLabelEntries(); got != before+1 {
		t.Fatalf("AddVertex added %d entries, want 1", got-before)
	}
	if _, stale := g.AddEdge(u, v); stale {
		t.Fatal("a pendant edge reported label tables stale")
	}
	if got := o.NumLabelEntries(); got != before+1+size {
		t.Fatalf("pendant label has %d entries, want %d", got-before, size+1)
	}
	// A chord that shortens paths between older vertices does not.
	for {
		a, b := roadnet.VertexID(rng.Intn(50)), roadnet.VertexID(rng.Intn(50))
		if a == b || g.HasEdge(a, b) {
			continue
		}
		if d := g.Dijkstra(a)[b]; d <= g.Vertex(a).Dist(g.Vertex(b))*1.5 {
			continue
		}
		if _, stale := g.AddEdge(a, b); !stale {
			t.Fatal("a shortening chord reported label tables current")
		}
		break
	}
}

// TestIsolatedVertexJoins covers the other edge whose end had no edge
// before: a vertex isolated when the labels were built keeps the rank the
// build gave it, possibly above its new neighbour's. Every pair stays
// exact with the isolated end on either side of the edge.
func TestIsolatedVertexJoins(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 40, 1.0, true)
		var isolated []roadnet.VertexID
		for i := 0; i < 12; i++ {
			isolated = append(isolated, g.AddVertex(geo.Pt(rng.Float64()*100, rng.Float64()*100)))
		}
		o := Build(g)
		g.SetDistanceOracle(o)
		for i, b := range isolated {
			a := roadnet.VertexID(rng.Intn(40))
			if i%2 == 0 {
				g.AddEdge(a, b)
			} else {
				g.AddEdge(b, a)
			}
			checkAllPairs(t, g, o, fmt.Sprintf("seed %d isolated %d joined %d", seed, b, a))
		}
	}
}
