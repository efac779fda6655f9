package gpssn

import (
	"errors"
	"runtime/debug"
	"testing"

	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
)

// TestIsolatedRoadVerticesCostOneEntry: an isolated road vertex costs its
// hub labels one self-entry and a constant handful of allocations, however
// many came before it (the delta overlay this replaced grew a portal row
// per vertex: O(portals) time and O(portals²) memory).
func TestIsolatedRoadVerticesCostOneEntry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RoadPivots, cfg.SocialPivots = 3, 3
	db, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := db.Network().Dataset().Road.Oracle().(*hl.Oracle)
	if !ok {
		t.Fatalf("default DB serves %T, want hub labels", db.Network().Dataset().Road.Oracle())
	}
	const n = 20000
	for i := 0; i < n; i++ {
		before := o.NumLabelEntries()
		if _, err := db.AddRoadVertex(float64(i%200)*0.01, float64(i/200)*0.01); err != nil {
			t.Fatal(err)
		}
		if got := o.NumLabelEntries() - before; got != 1 {
			t.Fatalf("vertex %d added %d label entries, want 1", i, got)
		}
	}
	if ov := db.RoadOverlayStats(); ov.NewVerts != n || ov.Portals != n {
		t.Fatalf("counters after %d isolated vertices: %+v", n, ov)
	}
	if raceBuild() {
		t.Skip("the race detector's own allocations make absolute counts meaningless")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := db.AddRoadVertex(1, 1); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 8
	if allocs > ceiling {
		t.Errorf("AddRoadVertex allocates %.1f objects per call after %d vertices, ceiling %d", allocs, n, ceiling)
	}
	t.Logf("allocs per AddRoadVertex: %.2f", allocs)
}

// raceBuild reports whether this test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestRoadInsertThroughAnotherDB: while DB B is open over A's network, A's
// chord is refused with ErrSharedNetwork and changes nothing; once B is
// closed, A takes it, and its answers equal Baseline's on the grown
// network under every oracle.
func TestRoadInsertThroughAnotherDB(t *testing.T) {
	for _, kind := range []string{"hl", "ch", "dijkstra"} {
		t.Run(kind, func(t *testing.T) {
			net := churnNetwork(t)
			cfg := DefaultConfig()
			cfg.RoadPivots, cfg.SocialPivots = 3, 3
			cfg.DistanceOracle = kind
			a, err := Open(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Open(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			road := net.Dataset().Road
			// The chord that shortens the most road distance within 3 units.
			best, bu, bv := 0.0, -1, -1
			for u := 0; u < road.NumVertices(); u++ {
				dist := road.Dijkstra(roadnet.VertexID(u))
				for v := u + 1; v < road.NumVertices(); v++ {
					line := road.Vertex(roadnet.VertexID(u)).Dist(road.Vertex(roadnet.VertexID(v)))
					if line <= 3 && !road.HasEdge(roadnet.VertexID(u), roadnet.VertexID(v)) && dist[v]-line > best {
						best, bu, bv = dist[v]-line, u, v
					}
				}
			}
			edges := road.NumEdges()
			if _, err := a.AddRoadEdge(bu, bv); !errors.Is(err, ErrSharedNetwork) || road.NumEdges() != edges {
				t.Fatalf("chord through A beside open B: %v, %d edges (had %d)", err, road.NumEdges(), edges)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := a.AddRoadEdge(bu, bv); err != nil {
				t.Fatal(err)
			}
			checkBaseline(t, a, kind)
		})
	}
}
