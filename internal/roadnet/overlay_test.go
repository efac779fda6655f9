package roadnet_test

// Randomized twin test for the delta-overlay: a graph with a static
// oracle attached and an identical twin with no oracle receive the same
// mutation script, and every distance shape must agree bit-for-bit after
// every mutation. The twin's plain Dijkstra over the mutated adjacency
// is exact by construction, so any divergence is an overlay bug. Runs
// against both oracle families (CH and hub labels) because the overlay
// composes through their many-to-many kernels differently.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
)

// twinPair builds the same random connected graph twice and attaches an
// oracle to one copy.
func twinPair(t *testing.T, rng *rand.Rand, n int, kind string) (withOracle, plain *roadnet.Graph) {
	t.Helper()
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	type edge struct{ u, v int }
	var edges []edge
	for i := 1; i < n; i++ {
		edges = append(edges, edge{i - 1, i})
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, edge{u, v})
		}
	}
	mk := func() *roadnet.Graph {
		g := roadnet.NewGraph(n, len(edges))
		for _, p := range pts {
			g.AddVertex(p)
		}
		for _, e := range edges {
			g.AddEdge(roadnet.VertexID(e.u), roadnet.VertexID(e.v))
		}
		return g
	}
	withOracle, plain = mk(), mk()
	switch kind {
	case "ch":
		withOracle.SetDistanceOracle(ch.Build(withOracle))
	case "hl":
		withOracle.SetDistanceOracle(hl.Build(withOracle))
	default:
		t.Fatalf("unknown oracle kind %q", kind)
	}
	return withOracle, plain
}

// almostEq compares distances up to the last-ulp association wobble
// between oracle shortcut sums and plain Dijkstra sums (a CH shortcut's
// weight is a build-time sum, so the same route can differ by one ulp).
// Any real overlay bug — a wrong path, a missed portal — is off by the
// length of a road segment, not 1e-12 relative.
func almostEq(a, b float64) bool {
	if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// compareAll checks every distance shape between the oracle-composed
// graph and its plain twin.
func compareAll(t *testing.T, rng *rand.Rand, g, twin *roadnet.Graph, tag string) {
	t.Helper()
	n := g.NumVertices()
	if twin.NumVertices() != n || twin.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: twins diverged structurally", tag)
	}

	randSeeds := func() []roadnet.Seed {
		k := 1 + rng.Intn(3)
		seeds := make([]roadnet.Seed, k)
		for i := range seeds {
			seeds[i] = roadnet.Seed{Vertex: roadnet.VertexID(rng.Intn(n)), Dist: rng.Float64() * 5}
		}
		return seeds
	}

	// Mixed old/new seeds to every vertex through the composed
	// many-to-many kernel, against the twin's one-to-all search.
	all := make([]roadnet.VertexID, n)
	for v := range all {
		all[v] = roadnet.VertexID(v)
	}
	for trial := 0; trial < 3; trial++ {
		seeds := randSeeds()
		got := g.Oracle().SeedDistances(seeds, all, math.Inf(1))
		want := twin.DijkstraMulti(seeds)
		for v := range want {
			if !almostEq(got[v], want[v]) {
				t.Fatalf("%s: seeds=%v vertex %d: got %v want %v", tag, seeds, v, got[v], want[v])
			}
		}
	}

	// Attachment distances, bounded and unbounded, including attaches on
	// freshly added edges.
	randAttach := func() roadnet.Attach {
		return roadnet.Attach{Edge: roadnet.EdgeID(rng.Intn(g.NumEdges())), T: rng.Float64()}
	}
	for trial := 0; trial < 6; trial++ {
		a := randAttach()
		cands := []roadnet.Attach{randAttach(), randAttach(), randAttach()}
		got := g.DistAttachMany(a, cands)
		want := twin.DistAttachMany(a, cands)
		for i := range want {
			if !almostEq(got[i], want[i]) {
				t.Fatalf("%s: DistAttachMany a=%v c=%v: got %v want %v", tag, a, cands[i], got[i], want[i])
			}
		}
		bound := rng.Float64() * 60
		gotB := g.DistAttachWithin(a, bound, cands)
		wantB := twin.DistAttachWithin(a, bound, cands)
		for i := range wantB {
			if !almostEq(gotB[i], wantB[i]) {
				t.Fatalf("%s: DistAttachWithin bound=%v a=%v c=%v: got %v want %v", tag, bound, a, cands[i], gotB[i], wantB[i])
			}
		}
		if d, dw := g.DistAttach(a, cands[0]), twin.DistAttach(a, cands[0]); !almostEq(d, dw) {
			t.Fatalf("%s: DistAttach: got %v want %v", tag, d, dw)
		}
	}
}

func TestOverlayExactUnderChurn(t *testing.T) {
	for _, kind := range []string{"ch", "hl"} {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g, twin := twinPair(t, rng, 40, kind)
			if !g.OverlayStats().Active {
				// No mutation yet: the static oracle should still be naked.
				if s := g.OverlayStats(); s.Active {
					t.Fatalf("overlay active before any mutation: %+v", s)
				}
			}
			compareAll(t, rng, g, twin, "pre-mutation")

			// Interleave vertex adds, edge adds (old-old, old-new,
			// new-new, duplicates), and full comparisons.
			for step := 0; step < 25; step++ {
				switch rng.Intn(4) {
				case 0: // new vertex near an existing one
					base := g.Vertex(roadnet.VertexID(rng.Intn(g.NumVertices())))
					p := geo.Pt(base.X+rng.Float64()*4-2, base.Y+rng.Float64()*4-2)
					v1, v2 := g.AddVertex(p), twin.AddVertex(p)
					if v1 != v2 {
						t.Fatalf("vertex ids diverged: %d vs %d", v1, v2)
					}
				case 1, 2: // edge between two random vertices (any age)
					u := roadnet.VertexID(rng.Intn(g.NumVertices()))
					v := roadnet.VertexID(rng.Intn(g.NumVertices()))
					if u == v {
						continue
					}
					g.AddEdge(u, v)
					twin.AddEdge(u, v)
				case 3: // duplicate an existing edge
					e := g.EdgeAt(roadnet.EdgeID(rng.Intn(g.NumEdges())))
					g.AddEdge(e.U, e.V)
					twin.AddEdge(e.U, e.V)
				}
				if step%5 == 4 {
					compareAll(t, rng, g, twin, fmt.Sprintf("%s step %d", kind, step))
				}
			}
			compareAll(t, rng, g, twin, "final")

			s := g.OverlayStats()
			if !s.Active || s.NewEdges == 0 || s.Portals == 0 {
				t.Fatalf("overlay stats not tracking churn: %+v", s)
			}
			if s.BaseN != 40 {
				t.Fatalf("overlay baseN = %d, want 40", s.BaseN)
			}
			if s.Queries == 0 {
				t.Fatalf("overlay served no composed queries")
			}
		})
	}
}

// TestOverlayCheckpointAbort verifies the all-or-nothing abort contract
// survives composition: a cancelled checkpoint yields all-+Inf results,
// never partial distances.
func TestOverlayCheckpointAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, _ := twinPair(t, rng, 30, "ch")
	v := g.AddVertex(geo.Pt(50, 50))
	g.AddEdge(v, 3)

	done := make(chan struct{})
	close(done)
	ck := roadnet.NewCheckpoint(done, func() error { return fmt.Errorf("cancelled") }, 0)
	a := g.AttachVertex(v)
	out := g.DistAttachWithinCk(a, math.Inf(1), []roadnet.Attach{{Edge: 0, T: 0.5}}, ck)
	if !math.IsInf(out[0], 1) {
		t.Fatalf("aborted attach batch leaked finite distance %v", out[0])
	}
}

// TestOverlayIsolatedVertex: a freshly added vertex with no edges is
// reachable only from itself; the overlay must not panic or invent
// paths, and the static oracle must stay attached.
func TestOverlayIsolatedVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, twin := twinPair(t, rng, 20, "hl")
	v1 := g.AddVertex(geo.Pt(500, 500))
	twin.AddVertex(geo.Pt(500, 500))
	if g.Oracle() == nil {
		t.Fatal("AddVertex detached the oracle")
	}
	o := g.Oracle()
	if d := o.SeedDistances([]roadnet.Seed{{Vertex: 0}}, []roadnet.VertexID{v1}, math.Inf(1))[0]; !math.IsInf(d, 1) {
		t.Fatalf("isolated vertex reachable: %v", d)
	}
	if d := o.SeedDistances([]roadnet.Seed{{Vertex: v1, Dist: 2.5}}, []roadnet.VertexID{v1, 0}, math.Inf(1)); d[0] != 2.5 || !math.IsInf(d[1], 1) {
		t.Fatalf("isolated vertex: self-distance %v (want 2.5), to vertex 0 %v (want +Inf)", d[0], d[1])
	}
}

// TestGridIncrementalInsert: mutations no longer force SnapPoint into a
// full rebuild; snapping stays correct against a rebuilt-from-scratch
// twin after every insert.
func TestGridIncrementalInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, twin := twinPair(t, rng, 30, "ch")
	if _, ok := g.SnapPoint(geo.Pt(1, 1)); !ok {
		t.Fatal("snap failed on seeded graph")
	}
	builds := g.GridBuilds()
	if builds != 1 {
		t.Fatalf("expected exactly one lazy grid build, got %d", builds)
	}
	for step := 0; step < 20; step++ {
		u := roadnet.VertexID(rng.Intn(g.NumVertices()))
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if u == v {
			continue
		}
		g.AddEdge(u, v)
		twin.AddEdge(u, v)
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		got, ok1 := g.SnapPoint(p)
		want, ok2 := twin.SnapPoint(p)
		if ok1 != ok2 {
			t.Fatalf("snap ok diverged at step %d", step)
		}
		// The nearest segment can tie; compare resulting locations.
		if !almostEq(g.Location(got).Dist(p), twin.Location(want).Dist(p)) {
			t.Fatalf("step %d: snap dist %v vs rebuilt twin %v", step,
				g.Location(got).Dist(p), twin.Location(want).Dist(p))
		}
	}
	if g.GridBuilds() != builds {
		t.Fatalf("in-bounds edge inserts forced %d grid rebuilds", g.GridBuilds()-builds)
	}
	// An edge escaping the built extent must fall back to a rebuild and
	// still answer correctly.
	far1 := g.AddVertex(geo.Pt(900, 900))
	far2 := g.AddVertex(geo.Pt(905, 905))
	tf1 := twin.AddVertex(geo.Pt(900, 900))
	tf2 := twin.AddVertex(geo.Pt(905, 905))
	g.AddEdge(far1, far2)
	twin.AddEdge(tf1, tf2)
	got, _ := g.SnapPoint(geo.Pt(901, 901))
	if g.Location(got).Dist(geo.Pt(901, 901)) > 5 {
		t.Fatalf("out-of-extent edge not snappable after fallback: %v", got)
	}
	if g.GridBuilds() != builds+1 {
		t.Fatalf("expected exactly one fallback rebuild, got %d total", g.GridBuilds())
	}
}
