package roadnet

// DistanceOracle is a pluggable exact shortest-path backend for a Graph.
// When one is attached (SetDistanceOracle), the attachment-distance queries
// (DistAttach, DistAttachMany, DistAttachWithin) and the full one-to-all
// scans (Dijkstra, DijkstraMulti) delegate to it instead of running plain
// Dijkstra searches. An oracle answers for the graph snapshot it was built
// from; any structural mutation (AddVertex, AddEdge) detaches it.
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

	// OneToAll returns exact shortest-path distances from the nearest seed
	// to every vertex (the DijkstraMulti shape). The returned slice is owned
	// by the caller. Must be safe for concurrent use.
	OneToAll(sources []Seed) []float64
}

// CheckedOracle is the optional extension a DistanceOracle implements to
// participate in cooperative cancellation and work budgeting. The Ck
// variants mirror the base methods but report consumed work (settled
// vertices / merged label entries) to the checkpoint and abort once it
// trips. Results of an aborted call are unspecified — callers must test
// ck.Stopped() and discard them wholesale (the Graph wrappers do this and
// substitute +Inf), so an oracle may return partially-filled slices.
// ck is never nil here: the Graph only takes this path with a live
// checkpoint and otherwise calls the unchecked methods.
type CheckedOracle interface {
	DistanceOracle
	SeedDistancesCk(sources []Seed, targets []VertexID, bound float64, ck *Checkpoint) []float64
	OneToAllCk(sources []Seed, ck *Checkpoint) []float64
}

// SetDistanceOracle attaches (or, with nil, detaches) a distance oracle.
// The oracle must answer for this graph's current topology; it is detached
// automatically if the graph mutates afterwards. Attach before building
// indexes so pivot-table construction reuses it too. Not safe to call
// concurrently with queries — attach once, then share the graph.
func (g *Graph) SetDistanceOracle(o DistanceOracle) { g.oracle = o }

// Oracle returns the attached distance oracle, or nil.
func (g *Graph) Oracle() DistanceOracle { return g.oracle }
