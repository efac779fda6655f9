package roadnet_test

import (
	"math"
	"math/rand"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
)

// TestClearanceRule checks the clearance rule against plain Dijkstra on the
// mutated graph. A hub-label oracle, a label table and a pivot table are
// built over G0; random pendant and chord edges follow. For random
// attachment pairs, a G0 label distance the rule admits (d0 ≤ E(x)+E(y),
// with the engine's slack) must be the mutated graph's distance, a label
// distance beyond a bound must be too when E(x)+E(y) exceeds the bound,
// and min(LB0, E(x)+E(y)) must never exceed it.
func TestClearanceRule(t *testing.T) {
	admitted, refused := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, plain := twinPair(t, rng, 120, "hl")
		baseEdges := g.NumEdges()
		pivots := roadnet.BuildPivotTable(g, []roadnet.VertexID{0, 40, 80})
		randAttach := func(edges int) roadnet.Attach {
			return g.AttachAt(roadnet.EdgeID(rng.Intn(edges)), rng.Float64())
		}
		pre := make([]roadnet.Attach, 40)
		for i := range pre {
			pre[i] = randAttach(baseEdges)
		}
		table := g.NewLabelTable(pre)
		if g.Clearance(geo.Pt(50, 50)) != math.Inf(1) || g.PendingEdges() != 0 {
			t.Fatal("a graph with no pending edge must have no old portal")
		}

		// Pendant vertices beside random vertices, and chords between
		// random vertices at most 30 apart, on both graphs.
		for k := 0; k < 6; k++ {
			u := roadnet.VertexID(rng.Intn(120))
			p := g.Vertex(u).Add(geo.Pt(rng.Float64()*4-2, rng.Float64()*4-2))
			v, pv := g.AddVertex(p), plain.AddVertex(p)
			g.AddEdge(u, v)
			plain.AddEdge(u, pv)
		}
		for k := 0; k < 4; k++ {
			u, v := roadnet.VertexID(rng.Intn(120)), roadnet.VertexID(rng.Intn(120))
			if u == v || g.HasEdge(u, v) || g.Vertex(u).Dist(g.Vertex(v)) > 30 {
				continue
			}
			g.AddEdge(u, v)
			plain.AddEdge(u, v)
		}
		if !table.ValidFor(g, len(pre)) {
			t.Fatal("the label table must keep answering for the base")
		}
		clear := func(a roadnet.Attach) float64 {
			c := g.AttachClearance(a)
			if !g.NewEdge(a.Edge) && math.Abs(c-g.Clearance(g.Location(a))) > 0 {
				t.Fatalf("AttachClearance %v disagrees with Clearance", c)
			}
			return c
		}

		lbl := roadnet.AcquireLabel()
		out := make([]float64, 1)
		for trial := 0; trial < 300; trial++ {
			x := randAttach(g.NumEdges())
			if trial%3 != 0 {
				x = randAttach(baseEdges)
			}
			r := rng.Intn(len(pre))
			y := pre[r]
			truth := plain.DistAttach(x, y)
			via := clear(x) + clear(y)
			g.AttachLabel(x, lbl)
			d0 := g.RowDistsCk(lbl, x, table, []int32{int32(r)}, math.Inf(1), out, nil)[0]
			t0 := via * (1 - 1e-9)
			if (!math.IsInf(d0, 1) && d0 <= t0) || math.IsInf(t0, 1) {
				admitted++
				if !almostEq(d0, truth) {
					t.Fatalf("seed %d: admitted label distance %v, mutated graph %v (via ≥ %v)", seed, d0, truth, via)
				}
			} else {
				refused++
			}
			// A label distance beyond a bound is the mutated graph's when
			// every path through an old portal is beyond it too.
			if b := truth * 0.9; truth > 0 && b < t0 {
				if d := g.RowDistsCk(lbl, x, table, []int32{int32(r)}, b, out, nil)[0]; !math.IsInf(d, 1) {
					t.Fatalf("seed %d: label distance %v within bound %v below the true %v", seed, d, b, truth)
				}
			}
			if !g.NewEdge(x.Edge) {
				lb := min(roadnet.LowerBound(pivots.AttachDistAll(g, x), pivots.AttachDistAll(g, y)), via)
				if lb > truth*(1+1e-9) {
					t.Fatalf("seed %d: min(LB0, E(x)+E(y)) = %v above the true distance %v", seed, lb, truth)
				}
			}
		}
		roadnet.ReleaseLabel(lbl)
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("the rule admitted %d and refused %d pairs: both paths must be exercised", admitted, refused)
	}
}

// TestMarkBase pins when the base moves: an unmarked graph takes the
// first mark, a mark with no edge appended since moves the base up, and a
// mark after an appended edge keeps the older base and its portals.
func TestMarkBase(t *testing.T) {
	g := roadnet.NewGraph(4, 4)
	for _, p := range []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)} {
		g.AddVertex(p)
	}
	g.AddEdge(0, 1)
	if g.PendingEdges() != 0 || g.NewEdge(0) {
		t.Fatal("an unmarked graph has no pending edge")
	}
	g.MarkBase()
	g.AddEdge(1, 2)
	if g.PendingEdges() != 1 || !g.NewEdge(1) || g.NewEdge(0) {
		t.Fatal("the edge appended after the mark must be new")
	}
	if c := g.Clearance(geo.Pt(1, 3)); math.Abs(c-3) > 1e-12 {
		t.Fatalf("clearance %v, want 3 (old portals 1 and 2)", c)
	}
	g.MarkBase()
	if g.PendingEdges() != 1 {
		t.Fatal("a mark after an appended edge must keep the older base")
	}
	g.SetDistanceOracle(nil)
	if g.PendingEdges() != 1 {
		t.Fatal("attaching an oracle must not move a base with pending edges")
	}
}
