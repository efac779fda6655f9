package roadnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpssn/internal/geo"
)

func TestBuildPivotTable(t *testing.T) {
	g := gridGraph(6)
	pt := BuildPivotTable(g, []VertexID{0, 35})
	if pt.NumPivots() != 2 {
		t.Fatalf("NumPivots = %d", pt.NumPivots())
	}
	// Pivot 0 at (0,0): distance to vertex 35 = (5,5) is 10.
	if got := pt.Row(0)[35]; math.Abs(got-10) > 1e-9 {
		t.Errorf("Row(0)[35] = %v, want 10", got)
	}
	if got := pt.Row(1)[35]; got != 0 {
		t.Errorf("pivot self-distance = %v", got)
	}
}

func TestBuildPivotTableEmptyPanics(t *testing.T) {
	g := gridGraph(2)
	defer func() {
		if recover() == nil {
			t.Error("empty pivot set should panic")
		}
	}()
	BuildPivotTable(g, nil)
}

func TestAttachDist(t *testing.T) {
	g := gridGraph(4)
	pt := BuildPivotTable(g, []VertexID{0})
	// Attach 0.5 along edge 0 (between (0,0) and (1,0)): distance to pivot
	// vertex 0 is 0.5.
	a := g.AttachAt(EdgeID(0), 0.5)
	all := pt.AttachDistAll(g, a)
	if len(all) != 1 || math.Abs(all[0]-0.5) > 1e-9 {
		t.Errorf("AttachDistAll = %v", all)
	}
}

// Property: the pivot-based lower bound never exceeds the true
// road-network distance for random attachment pairs.
func TestPivotBoundsBracketTrueDistance(t *testing.T) {
	g := gridGraph(7)
	pivots := []VertexID{0, 24, 48}
	pt := BuildPivotTable(g, pivots)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		a := g.AttachAt(EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
		b := g.AttachAt(EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
		da := pt.AttachDistAll(g, a)
		db := pt.AttachDistAll(g, b)
		lb := LowerBound(da, db)
		d := g.DistAttach(a, b)
		if lb > d+1e-9 {
			t.Fatalf("trial %d: lb %v > true dist %v", trial, lb, d)
		}
	}
}

func TestBoundsMismatchedLengthsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"LowerBound": func() { LowerBound([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestLowerBoundIgnoresUnreachablePivots(t *testing.T) {
	inf := math.Inf(1)
	lb := LowerBound([]float64{inf, 3}, []float64{inf, 7})
	if lb != 4 {
		t.Errorf("lb = %v, want 4", lb)
	}
	// All-unreachable yields the trivial bound 0.
	if lb := LowerBound([]float64{inf}, []float64{inf}); lb != 0 {
		t.Errorf("all-inf lb = %v, want 0", lb)
	}
}

// Property: with a single pivot, LowerBound never exceeds the path through
// the pivot for arbitrary non-negative values (|a-b| <= a+b). With
// multiple pivots soundness needs vectors derived from an actual metric,
// which TestPivotBoundsBracketTrueDistance covers.
func TestBoundOrderingSinglePivotProperty(t *testing.T) {
	f := func(a, b float64) bool {
		da := []float64{math.Abs(math.Mod(a, 1000))}
		db := []float64{math.Abs(math.Mod(b, 1000))}
		if math.IsNaN(da[0]) {
			da[0] = 0
		}
		if math.IsNaN(db[0]) {
			db[0] = 0
		}
		return LowerBound(da, db) <= da[0]+db[0]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPivotRowReadOnlyLength(t *testing.T) {
	g := gridGraph(3)
	pt := BuildPivotTable(g, []VertexID{4})
	if len(pt.Row(0)) != g.NumVertices() {
		t.Errorf("Row length = %d, want %d", len(pt.Row(0)), g.NumVertices())
	}
	if got := pt.Pivots(); len(got) != 1 || got[0] != 4 {
		t.Errorf("Pivots = %v", got)
	}
}

func TestPivotOutOfRangePanics(t *testing.T) {
	g := gridGraph(3)
	pt := BuildPivotTable(g, []VertexID{0})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range pivot index should panic")
		}
	}()
	pt.Row(5)
}

func BenchmarkDijkstraGrid50(b *testing.B) {
	g := gridGraph(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(0)
	}
}

func BenchmarkDistAttach(b *testing.B) {
	g := gridGraph(40)
	rng := rand.New(rand.NewSource(1))
	p := g.AttachAt(EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
	q := g.AttachAt(EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DistAttach(p, q)
	}
}

func BenchmarkSnapPoint(b *testing.B) {
	g := gridGraph(60)
	rng := rand.New(rand.NewSource(2))
	pts := make([]geo.Point, 1000)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*59, rng.Float64()*59)
	}
	g.SnapPoint(pts[0]) // build grid outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SnapPoint(pts[i%len(pts)])
	}
}
