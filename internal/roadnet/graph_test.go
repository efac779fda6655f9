package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"gpssn/internal/geo"
)

// gridGraph builds an n x n grid road network with unit spacing.
// Vertex (r, c) has id r*n+c.
func gridGraph(n int) *Graph {
	g := NewGraph(n*n, 2*n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			g.AddVertex(geo.Pt(float64(c), float64(r)))
		}
	}
	id := func(r, c int) VertexID { return VertexID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < n {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

func TestAddVertexEdge(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddVertex(geo.Pt(0, 0))
	b := g.AddVertex(geo.Pt(3, 4))
	e, _ := g.AddEdge(a, b)
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if w := g.EdgeAt(e).Weight; math.Abs(w-5) > 1e-12 {
		t.Errorf("edge weight = %v, want 5", w)
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("HasEdge should be symmetric")
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Error("degrees wrong")
	}
	if got := g.AvgDegree(); math.Abs(got-1) > 1e-12 {
		t.Errorf("AvgDegree = %v, want 1", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := NewGraph(0, 0)
	v := g.AddVertex(geo.Pt(0, 0))
	defer func() {
		if recover() == nil {
			t.Error("self-loop should panic")
		}
	}()
	g.AddEdge(v, v)
}

func TestDijkstraGrid(t *testing.T) {
	n := 10
	g := gridGraph(n)
	dist := g.Dijkstra(0) // corner (0,0)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			want := float64(r + c) // Manhattan distance on unit grid
			if got := dist[r*n+c]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("dist to (%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddVertex(geo.Pt(0, 0))
	b := g.AddVertex(geo.Pt(1, 0))
	g.AddEdge(a, b)
	c := g.AddVertex(geo.Pt(50, 50)) // isolated
	dist := g.Dijkstra(a)
	if !math.IsInf(dist[c], 1) {
		t.Errorf("isolated vertex distance = %v, want +Inf", dist[c])
	}
}

func TestDijkstraMultiSeeds(t *testing.T) {
	g := gridGraph(5)
	// Seeds at two opposite corners with offsets.
	dist := g.DijkstraMulti([]Seed{{Vertex: 0, Dist: 0.5}, {Vertex: 24, Dist: 0}})
	// Vertex 24 is (4,4); vertex 0 is (0,0). Center (2,2) id 12: from 24 it's 4.
	if got := dist[12]; math.Abs(got-4) > 1e-9 {
		t.Errorf("center dist = %v, want 4", got)
	}
	if got := dist[0]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("seed dist = %v, want 0.5", got)
	}
}

func TestNegativeSeedPanics(t *testing.T) {
	g := gridGraph(2)
	defer func() {
		if recover() == nil {
			t.Error("negative seed distance should panic")
		}
	}()
	g.DijkstraMulti([]Seed{{Vertex: 0, Dist: -1}})
}

func TestShortestPath(t *testing.T) {
	g := gridGraph(4)
	d, path := g.ShortestPath(0, 15) // (0,0) -> (3,3)
	if math.Abs(d-6) > 1e-9 {
		t.Errorf("path dist = %v, want 6", d)
	}
	if len(path) != 7 {
		t.Errorf("path has %d vertices, want 7", len(path))
	}
	if path[0] != 0 || path[len(path)-1] != 15 {
		t.Errorf("path endpoints: %v", path)
	}
	// Verify path edges exist and lengths sum to d.
	sum := 0.0
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			t.Fatalf("path uses missing edge %d-%d", path[i], path[i+1])
		}
		sum += g.Vertex(path[i]).Dist(g.Vertex(path[i+1]))
	}
	if math.Abs(sum-d) > 1e-9 {
		t.Errorf("path length %v != dist %v", sum, d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddVertex(geo.Pt(0, 0))
	b := g.AddVertex(geo.Pt(9, 9))
	d, path := g.ShortestPath(a, b)
	if !math.IsInf(d, 1) || path != nil {
		t.Errorf("unreachable: d=%v path=%v", d, path)
	}
}

func TestDistAttachSameEdge(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddVertex(geo.Pt(0, 0))
	b := g.AddVertex(geo.Pt(10, 0))
	e, _ := g.AddEdge(a, b)
	p := g.AttachAt(e, 0.2)
	q := g.AttachAt(e, 0.7)
	if d := g.DistAttach(p, q); math.Abs(d-5) > 1e-9 {
		t.Errorf("same-edge dist = %v, want 5", d)
	}
	if d := g.DistAttach(p, p); d != 0 {
		t.Errorf("self dist = %v, want 0", d)
	}
}

func TestDistAttachSameEdgeDetour(t *testing.T) {
	// Triangle where the direct edge is long but a detour through the third
	// vertex is shorter: a--b edge of length 10; a--c and c--b both length 1
	// is impossible with Euclidean weights, so instead test that the direct
	// route is correctly chosen on an edge where it is shortest.
	g := NewGraph(0, 0)
	a := g.AddVertex(geo.Pt(0, 0))
	b := g.AddVertex(geo.Pt(10, 0))
	c := g.AddVertex(geo.Pt(5, 1))
	ab, _ := g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(c, b)
	p := g.AttachAt(ab, 0.0)
	q := g.AttachAt(ab, 1.0)
	want := 10.0 // direct along a--b beats a-c-b (~10.2)
	if d := g.DistAttach(p, q); math.Abs(d-want) > 1e-9 {
		t.Errorf("dist = %v, want %v", d, want)
	}
}

func TestDistAttachCrossEdges(t *testing.T) {
	g := gridGraph(4)
	// Edge 0 connects (0,0)-(1,0); find edge between (3,3) area.
	e0 := EdgeID(0)
	p := g.AttachAt(e0, 0.5) // 0.5 along bottom-left horizontal edge
	// Attach exactly at vertex 15 = (3,3).
	q := g.AttachVertex(15)
	d := g.DistAttach(p, q)
	// From (0.5, 0) to (3,3): 0.5 to vertex (1,0), then 2+3 = 5 → 5.5,
	// or 0.5 to vertex (0,0) then 6 → 6.5. Want 5.5.
	if math.Abs(d-5.5) > 1e-9 {
		t.Errorf("cross-edge dist = %v, want 5.5", d)
	}
	// Symmetry.
	if d2 := g.DistAttach(q, p); math.Abs(d-d2) > 1e-9 {
		t.Errorf("asymmetric: %v vs %v", d, d2)
	}
}

func TestDistAttachMany(t *testing.T) {
	g := gridGraph(6)
	rng := rand.New(rand.NewSource(42))
	src := g.AttachAt(EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
	var targets []Attach
	for i := 0; i < 20; i++ {
		targets = append(targets, g.AttachAt(EdgeID(rng.Intn(g.NumEdges())), rng.Float64()))
	}
	many := g.DistAttachMany(src, targets)
	for i, tgt := range targets {
		want := g.DistAttach(src, tgt)
		if math.Abs(many[i]-want) > 1e-9 {
			t.Fatalf("target %d: many=%v single=%v", i, many[i], want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph(0, 0)
	a := g.AddVertex(geo.Pt(0, 0))
	b := g.AddVertex(geo.Pt(1, 0))
	c := g.AddVertex(geo.Pt(5, 5))
	d := g.AddVertex(geo.Pt(6, 5))
	g.AddEdge(a, b)
	g.AddEdge(c, d)
	labels, n := g.ConnectedComponents()
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if labels[a] != labels[b] || labels[c] != labels[d] || labels[a] == labels[c] {
		t.Errorf("labels = %v", labels)
	}
	if g.IsConnected() {
		t.Error("graph should not be connected")
	}
	if !gridGraph(3).IsConnected() {
		t.Error("grid should be connected")
	}
}

func TestAttachVertexAndLocation(t *testing.T) {
	g := gridGraph(3)
	a := g.AttachVertex(4) // center (1,1)
	if loc := g.Location(a); loc.Dist(geo.Pt(1, 1)) > 1e-9 {
		t.Errorf("Location = %v, want (1,1)", loc)
	}
}

func TestAttachVertexIsolatedPanics(t *testing.T) {
	g := NewGraph(0, 0)
	v := g.AddVertex(geo.Pt(0, 0))
	defer func() {
		if recover() == nil {
			t.Error("AttachVertex on isolated vertex should panic")
		}
	}()
	g.AttachVertex(v)
}

func TestSnapPoint(t *testing.T) {
	g := gridGraph(5)
	// A point just above the horizontal edge from (1,2) to (2,2) should snap
	// onto that edge.
	a, ok := g.SnapPoint(geo.Pt(1.5, 2.1))
	if !ok {
		t.Fatal("SnapPoint failed")
	}
	loc := g.Location(a)
	if loc.Dist(geo.Pt(1.5, 2)) > 1e-9 {
		t.Errorf("snapped to %v, want (1.5, 2)", loc)
	}
}

func TestSnapPointMatchesBruteForce(t *testing.T) {
	g := gridGraph(8)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := geo.Pt(rng.Float64()*9-1, rng.Float64()*9-1)
		a, ok := g.SnapPoint(p)
		if !ok {
			t.Fatal("SnapPoint failed")
		}
		got := g.Location(a).Dist(p)
		best := math.Inf(1)
		for id := 0; id < g.NumEdges(); id++ {
			if d := g.EdgeSegment(EdgeID(id)).DistPoint(p); d < best {
				best = d
			}
		}
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("trial %d: snap dist %v, brute force %v", trial, got, best)
		}
	}
}

func TestSnapPointEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	if _, ok := g.SnapPoint(geo.Pt(0, 0)); ok {
		t.Error("SnapPoint on empty graph should fail")
	}
}

func TestBounds(t *testing.T) {
	g := gridGraph(3)
	b := g.Bounds()
	if b != (geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(2, 2)}) {
		t.Errorf("Bounds = %v", b)
	}
}
