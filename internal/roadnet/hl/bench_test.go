package hl

import (
	"math/rand"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
)

// benchGraph builds a connected road-like network (spanning tree plus a
// sparse sprinkle of extra edges — hierarchy-based oracles degrade on
// dense random graphs, which no road network is) for the package
// microbenchmarks (run with `go test -bench . ./internal/roadnet/hl`; the
// benchmark's roadnet.hl.* metrics are the committed numbers).
func benchGraph(b *testing.B, n int) (*roadnet.Graph, *ch.Oracle) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := roadnet.NewGraph(n, 2*n)
	for i := 0; i < n; i++ {
		g.AddVertex(geo.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	for i := 1; i < n; i++ {
		// Window the tree attachment so the graph has road-like locality
		// (a global random tree has none and inflates every label).
		lo := i - 50
		if lo < 0 {
			lo = 0
		}
		g.AddEdge(roadnet.VertexID(lo+rng.Intn(i-lo)), roadnet.VertexID(i))
	}
	for i := 0; i < n/2; i++ {
		u := rng.Intn(n)
		v := u - 100 + rng.Intn(200)
		if v >= 0 && v < n && u != v {
			g.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v))
		}
	}
	return g, ch.Build(g)
}

func BenchmarkBuildFromCH(b *testing.B) {
	_, cho := benchGraph(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromCH(cho)
	}
}

func BenchmarkPointToPointHL(b *testing.B) {
	g, cho := benchGraph(b, 5000)
	benchPointToPoint(b, g, FromCH(cho))
}

func BenchmarkPointToPointCH(b *testing.B) {
	g, cho := benchGraph(b, 5000)
	benchPointToPoint(b, g, cho)
}

func benchPointToPoint(b *testing.B, g *roadnet.Graph, o roadnet.DistanceOracle) {
	b.Helper()
	g.SetDistanceOracle(o)
	rng := rand.New(rand.NewSource(7))
	const pairs = 64
	as := make([]roadnet.Attach, pairs)
	bs := make([]roadnet.Attach, pairs)
	for i := range as {
		as[i] = g.AttachAt(roadnet.EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
		bs[i] = g.AttachAt(roadnet.EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DistAttach(as[i%pairs], bs[i%pairs])
	}
}

// BenchmarkLabelKernel measures the batched refinement shape: one source
// label against a prepared 32-target label set per op.
func BenchmarkLabelKernel(b *testing.B) {
	g, cho := benchGraph(b, 5000)
	g.SetDistanceOracle(FromCH(cho))
	rng := rand.New(rand.NewSource(9))
	atts := make([]roadnet.Attach, 32)
	for i := range atts {
		atts[i] = g.AttachAt(roadnet.EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
	}
	tl := g.PrepareTargetLabels(atts)
	src := g.AttachAt(roadnet.EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
	lbl := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(lbl)
	g.AttachLabel(src, lbl)
	out := make([]float64, tl.NumTargets())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LabelDists(lbl, src, tl, 1e18, out)
	}
}
