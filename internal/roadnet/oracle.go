package roadnet

// DistanceOracle is a pluggable exact shortest-path backend for a Graph.
// When one is attached (SetDistanceOracle), the attachment-distance queries
// (DistAttach, DistAttachMany, DistAttachWithin) delegate to it instead of
// running bounded Dijkstra searches. It answers pairs and batches of pairs
// only: the full one-to-all scans (Dijkstra, DijkstraMulti) always run the
// graph's own heap search, whose only callers build pivot tables and the
// brute-force baseline. An oracle answers for the graph it was built from;
// one that implements DynamicOracle follows the graph's road inserts and
// stays attached, any other is detached by the first new edge.
//
// The contraction-hierarchy implementation lives in internal/roadnet/ch;
// it cannot be referenced from here (it imports this package), which is
// why the seam is an interface.
type DistanceOracle interface {
	// SeedDistances returns, for each target vertex, the exact shortest-path
	// distance from the nearest source seed. Distances strictly greater than
	// bound are reported as +Inf (bound may be +Inf for an unbounded query);
	// distances exactly equal to the bound stay exact, matching the
	// settle-ties-at-the-bound contract of the bounded Dijkstra it replaces.
	// Unreachable targets get +Inf. Implementations must be safe for
	// concurrent use: refinement workers issue queries in parallel.
	SeedDistances(sources []Seed, targets []VertexID, bound float64) []float64
}

// CheckedOracle is the optional extension a DistanceOracle implements to
// participate in cooperative cancellation and work budgeting.
// SeedDistancesCk mirrors SeedDistances but reports consumed work (settled
// vertices / merged label entries) to the checkpoint and abort once it
// trips. Results of an aborted call are unspecified — callers must test
// ck.Stopped() and discard them wholesale (the Graph wrappers do this and
// substitute +Inf), so an oracle may return partially-filled slices.
// ck is never nil here: the Graph only takes this path with a live
// checkpoint and otherwise calls SeedDistances.
type CheckedOracle interface {
	DistanceOracle
	SeedDistancesCk(sources []Seed, targets []VertexID, bound float64, ck *Checkpoint) []float64
}

// DynamicOracle is a DistanceOracle that stays exact as the graph grows
// (the hub labels of internal/roadnet/hl). The graph calls AddVertex after
// appending a vertex and AddEdge after appending the edge a–b of weight w;
// AddEdge reports whether it changed what the oracle says about the
// graph's earlier edges, which leaves label tables built from it stale
// (Graph.AddEdge). Neither runs concurrently with queries.
type DynamicOracle interface {
	DistanceOracle
	AddVertex()
	AddEdge(g *Graph, a, b VertexID, w float64) (stale bool)
}

// SetDistanceOracle attaches (or, with nil, detaches) a distance oracle and
// zeroes the insert counters (OverlayStats). The oracle must answer for
// this graph's current topology. Attach before building indexes so
// pivot-table construction reuses it too. Not safe to call concurrently
// with queries — attach once, then share the graph.
func (g *Graph) SetDistanceOracle(o DistanceOracle) {
	g.oracle = o
	g.inserts = insertStats{tracked: o != nil, baseN: len(g.pts)}
}

// Oracle returns the attached distance oracle, or nil.
func (g *Graph) Oracle() DistanceOracle { return g.oracle }

// insertStats counts the road inserts since an oracle was attached.
type insertStats struct {
	tracked bool // an oracle was attached (it may have been detached since)
	baseN   int  // vertices when it was attached
	verts   int
	edges   int
	oldEnds map[VertexID]struct{} // old vertices a new edge touches
}

// OverlayStats counts the road inserts a graph has taken since its oracle
// was attached, surfaced through DB.RoadOverlayStats and the serve
// /statsz endpoint. The name is historical: inserts update the oracle in
// place, and Portals is the number that tells a background Compact, which
// re-minimises the labels, when to run.
type OverlayStats struct {
	Active   bool // a road vertex or edge was added since the oracle was attached
	NewVerts int  // vertices appended since
	NewEdges int  // edges appended since
	Portals  int  // new vertices plus the distinct older vertices new edges touch
}

// OverlayStats reports the inserts since the oracle was attached, or a
// zero value when none ever was.
func (g *Graph) OverlayStats() OverlayStats {
	s := g.inserts
	if !s.tracked {
		return OverlayStats{}
	}
	return OverlayStats{
		Active:   s.verts+s.edges > 0,
		NewVerts: s.verts,
		NewEdges: s.edges,
		Portals:  s.verts + len(s.oldEnds),
	}
}

// noteVertex and noteEdge update the counters and the attached oracle
// after an insert: a DynamicOracle follows it, any other oracle is
// detached by the first new edge, and plain Dijkstra serves from then on.
// noteEdge returns the DynamicOracle's stale report.
func (g *Graph) noteVertex() {
	if o, ok := g.oracle.(DynamicOracle); ok {
		o.AddVertex()
	}
	if g.inserts.tracked {
		g.inserts.verts++
	}
}

func (g *Graph) noteEdge(u, v VertexID, w float64) (stale bool) {
	switch o := g.oracle.(type) {
	case nil:
	case DynamicOracle:
		stale = o.AddEdge(g, u, v, w)
	default:
		g.oracle = nil
	}
	s := &g.inserts
	if !s.tracked {
		return stale
	}
	s.edges++
	for _, x := range [2]VertexID{u, v} {
		if int(x) < s.baseN {
			if s.oldEnds == nil {
				s.oldEnds = make(map[VertexID]struct{})
			}
			s.oldEnds[x] = struct{}{}
		}
	}
	return stale
}
