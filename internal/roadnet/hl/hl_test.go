package hl

import (
	"math"
	"math/rand"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
)

// randomGraph mirrors the CH test generator: n vertices, ~density·n edges,
// optionally spanning-tree connected (disconnected graphs exercise the
// +Inf no-common-hub paths).
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

func near(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestHLMatchesCHAndDijkstra is the randomized three-way property test:
// on random connected and disconnected graphs, every hub-label query shape
// must agree with both the CH oracle and the plain Dijkstra ground truth
// (including +Inf for disconnected pairs).
func TestHLMatchesCHAndDijkstra(t *testing.T) {
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
				rng := rand.New(rand.NewSource(seed*6841 + 31))
				g := randomGraph(t, rng, tc.n, tc.density, tc.connect)
				cho := ch.Build(g)
				o := FromCH(cho)
				n := g.NumVertices()

				// SeedDistances (bounded and unbounded) vs Dijkstra and CH.
				for trial := 0; trial < 4; trial++ {
					src := roadnet.VertexID(rng.Intn(n))
					want := g.Dijkstra(src)
					targets := make([]roadnet.VertexID, 0, 8)
					for i := 0; i < 8; i++ {
						targets = append(targets, roadnet.VertexID(rng.Intn(n)))
					}
					for _, bound := range []float64{math.Inf(1), 40, 5} {
						got := o.SeedDistances([]roadnet.Seed{{Vertex: src}}, targets, bound)
						fromCH := cho.SeedDistances([]roadnet.Seed{{Vertex: src}}, targets, bound)
						for i, tv := range targets {
							w := want[tv]
							if w > bound {
								w = math.Inf(1)
							}
							if !near(w, got[i]) {
								t.Fatalf("seed %d SeedDistances(src=%d, t=%d, bound=%v) = %v, want %v",
									seed, src, tv, bound, got[i], w)
							}
							if !near(fromCH[i], got[i]) {
								t.Fatalf("seed %d hl vs ch diverged at t=%d bound=%v: hl=%v ch=%v",
									seed, tv, bound, got[i], fromCH[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestHLExactOnIntegerWeights pins bit-exact equality where float
// association order cannot interfere: on an integer-weight grid the label
// merges must reproduce Dijkstra bit for bit.
func TestHLExactOnIntegerWeights(t *testing.T) {
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

// TestGraphDelegation verifies the attachment-distance shapes agree with
// the plain searches when the HL oracle is attached, covering same-edge
// direct routes and unreachable candidates.
func TestGraphDelegation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed*99991 + 3))
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

// TestLabelKernel exercises the batched label-merge kernel (AttachLabel +
// PrepareTargetLabels + LabelDists) against DistAttachWithin for every
// bound shape, including targets on the source's own edge and unreachable
// ones.
func TestLabelKernel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed*7121 + 19))
		connect := seed%2 == 0
		g := randomGraph(t, rng, 60, 1.1, connect)
		g.SetDistanceOracle(Build(g))
		if !g.HasLabels() {
			t.Fatal("HL oracle must expose labels")
		}

		randAttach := func() roadnet.Attach {
			return g.AttachAt(roadnet.EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
		}
		src := randAttach()
		atts := []roadnet.Attach{{Edge: src.Edge, T: rng.Float64()}, src}
		for i := 0; i < 15; i++ {
			atts = append(atts, randAttach())
		}
		tl := g.PrepareTargetLabels(atts)
		if tl == nil || tl.NumTargets() != len(atts) {
			t.Fatal("PrepareTargetLabels failed")
		}
		lbl := roadnet.AcquireLabel()
		if !g.AttachLabel(src, lbl) {
			t.Fatal("AttachLabel failed")
		}
		out := make([]float64, len(atts))
		for _, bound := range []float64{math.Inf(1), 30, 4} {
			want := g.DistAttachWithin(src, bound, atts)
			g.LabelDists(lbl, src, tl, bound, out)
			for i := range atts {
				if !near(want[i], out[i]) {
					t.Fatalf("seed %d bound %v LabelDists[%d] = %v, want %v", seed, bound, i, out[i], want[i])
				}
			}
		}
		roadnet.ReleaseLabel(lbl)
	}
}

// TestLabelAPIWithoutOracle pins the graceful degradation: with no oracle
// (or a non-label oracle) attached, the label API reports unsupported.
func TestLabelAPIWithoutOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(t, rng, 20, 1.0, true)
	if g.HasLabels() {
		t.Fatal("plain graph must not claim labels")
	}
	var lbl roadnet.HubLabel
	if g.AttachLabel(g.AttachAt(0, 0.5), &lbl) {
		t.Fatal("AttachLabel must fail without a label oracle")
	}
	if tl := g.PrepareTargetLabels([]roadnet.Attach{g.AttachAt(0, 0.5)}); tl != nil {
		t.Fatal("PrepareTargetLabels must return nil without a label oracle")
	}
	g.SetDistanceOracle(ch.Build(g)) // CH has no labels either
	if g.HasLabels() {
		t.Fatal("CH oracle must not claim labels")
	}
}

// TestHLSurvivesMutation ensures structural edits keep an attached HL
// oracle attached with its labels exact: a point on the new edge gets a
// label, and the new vertex is at the new edge's length.
func TestHLSurvivesMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(t, rng, 20, 1.0, true)
	g.SetDistanceOracle(Build(g))
	if g.Oracle() == nil {
		t.Fatal("oracle not attached")
	}
	if !g.HasLabels() {
		t.Fatal("HL oracle must expose labels pre-mutation")
	}
	v := g.AddVertex(geo.Pt(200, 200))
	if g.Oracle() == nil || !g.HasLabels() {
		t.Fatal("AddVertex must keep the labels attached")
	}
	e, _ := g.AddEdge(v, 0)
	var lbl roadnet.HubLabel
	if !g.AttachLabel(g.AttachAt(e, 0.5), &lbl) || lbl.Len() == 0 {
		t.Fatalf("a point on a new edge got a %d-entry label", lbl.Len())
	}
	d := g.Oracle().SeedDistances([]roadnet.Seed{{Vertex: 0}}, []roadnet.VertexID{v}, math.Inf(1))[0]
	if want := g.Vertex(0).Dist(g.Vertex(v)); d != want {
		t.Fatalf("distance to new vertex %v, want the direct edge %v", d, want)
	}
}

// TestLabelStats sanity-checks the label statistics accessors.
func TestLabelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 40, 1.5, true)
	o := Build(g)
	if o.NumVertices() != 40 {
		t.Fatalf("NumVertices = %d", o.NumVertices())
	}
	if o.NumLabelEntries() < 40 {
		t.Fatalf("labels must at least contain the self entry, got %d total", o.NumLabelEntries())
	}
	if o.AvgLabelSize() < 1 || o.MaxLabelSize() < 1 {
		t.Fatalf("degenerate label stats: avg=%v max=%d", o.AvgLabelSize(), o.MaxLabelSize())
	}
}
