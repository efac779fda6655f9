package roadnet

import (
	"math"
	"testing"
)

// TestBoundedSearchSettlesFewer is the early-termination regression test:
// a tight bound must settle strictly fewer vertices than an unbounded scan
// of the same seeds, and labels past the bound must never be pushed.
func TestBoundedSearchSettlesFewer(t *testing.T) {
	g := gridGraph(12) // 12x12 grid, unit edge weights
	seeds := []Seed{{Vertex: 0, Dist: 0}}

	sc := acquireScratch(g.NumVertices())
	all := g.boundedSearch(sc, seeds, nil, math.Inf(1), nil)
	sc.release()
	if all != g.NumVertices() {
		t.Fatalf("unbounded search settled %d of %d vertices", all, g.NumVertices())
	}

	sc = acquireScratch(g.NumVertices())
	tight := g.boundedSearch(sc, seeds, nil, 3, nil)
	// Manhattan ball of radius 3 from the corner of a unit grid: vertices
	// with x+y <= 3, i.e. 10 of them.
	if tight != 10 {
		t.Fatalf("bound 3 settled %d vertices, want 10", tight)
	}
	for _, v := range sc.touched {
		if sc.dist[v] > 3 {
			t.Fatalf("vertex %d labelled %v beyond bound 3", v, sc.dist[v])
		}
	}
	sc.release()

	if tight >= all {
		t.Fatalf("tight bound settled %d vertices, not fewer than %d", tight, all)
	}
}

// TestBoundedSearchTargetsStop verifies the search stops once all tracked
// targets are settled rather than flooding the graph.
func TestBoundedSearchTargetsStop(t *testing.T) {
	g := gridGraph(12)
	seeds := []Seed{{Vertex: 0, Dist: 0}}
	targets := []VertexID{1, 12} // the two neighbours of the corner

	sc := acquireScratch(g.NumVertices())
	settled := g.boundedSearch(sc, seeds, targets, math.Inf(1), nil)
	sc.release()
	if settled >= g.NumVertices()/2 {
		t.Fatalf("target search settled %d vertices, expected early stop", settled)
	}
}

// TestDistAttachBatchStopsAtBall: without an oracle, a batch whose edge
// endpoints fit the 64 tracked targets stops once they are settled. It must
// return bit-identical distances to a search with no target list — bounded
// and unbounded — while settling fewer vertices.
func TestDistAttachBatchStopsAtBall(t *testing.T) {
	g := gridGraph(12)
	a := g.AttachAt(0, 0.5)
	cands := []Attach{g.AttachAt(0, 0.9), g.AttachAt(1, 0.25), g.AttachAt(3, 0.5), g.AttachAt(6, 0.75)}
	au, av, dau, dav := g.attachEnds(a)
	for _, bound := range []float64{math.Inf(1), 6} {
		early := NewCheckpoint(nil, nil, 0)
		got := g.DistAttachWithinCk(a, bound, cands, early)

		full := NewCheckpoint(nil, nil, 0)
		sc := acquireScratch(g.NumVertices())
		g.boundedSearch(sc, []Seed{{au, dau}, {av, dav}}, nil, bound, full)
		for i, c := range cands {
			want := g.finishAttachDist(a, c, g.DistToVertexVia(c, sc.dist), bound)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("bound %v, candidate %d: %v with early exit, %v without", bound, i, got[i], want)
			}
		}
		sc.release()
		if early.Spent() >= full.Spent() {
			t.Fatalf("bound %v: early exit settled %d vertices, not fewer than %d", bound, early.Spent(), full.Spent())
		}
	}
}

// TestScratchReuseIsClean ensures a released scratch comes back with an
// all-+Inf dist array even after bound- and target-limited searches.
func TestScratchReuseIsClean(t *testing.T) {
	g := gridGraph(6)
	for i := 0; i < 5; i++ {
		sc := acquireScratch(g.NumVertices())
		for v, d := range sc.dist {
			if !math.IsInf(d, 1) {
				t.Fatalf("iteration %d: pooled dist[%d] = %v, want +Inf", i, v, d)
			}
		}
		g.boundedSearch(sc, []Seed{{Vertex: VertexID(i), Dist: 0}}, nil, float64(i), nil)
		sc.release()
	}
}

// TestDistAttachAllocs pins the allocation count of the pooled hot-path
// queries: after warm-up, a DistAttach must not allocate O(|V|) buffers.
func TestDistAttachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	g := gridGraph(16)
	a := g.AttachAt(0, 0.25)
	b := g.AttachAt(EdgeID(g.NumEdges()-1), 0.75)
	for i := 0; i < 3; i++ { // warm the pool
		g.DistAttach(a, b)
	}
	// The two small seed/target slice literals may still escape; what must
	// not appear is the former per-call dist array + target map (which for
	// this 256-vertex grid alone would blow well past this budget).
	avg := testing.AllocsPerRun(50, func() {
		g.DistAttach(a, b)
	})
	if avg > 4 {
		t.Fatalf("DistAttach allocates %.1f objects per call, want <= 4", avg)
	}
}

// TestDistAttachWithinAllocs pins the allocation count of the bounded batch
// query to the output slice plus small constants.
func TestDistAttachWithinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	g := gridGraph(16)
	a := g.AttachAt(0, 0.5)
	cands := []Attach{g.AttachAt(1, 0.5), g.AttachAt(2, 0.5), g.AttachAt(3, 0.5)}
	for i := 0; i < 3; i++ {
		g.DistAttachWithin(a, 4, cands)
	}
	avg := testing.AllocsPerRun(50, func() {
		g.DistAttachWithin(a, 4, cands)
	})
	if avg > 4 {
		t.Fatalf("DistAttachWithin allocates %.1f objects per call, want <= 4", avg)
	}
}
