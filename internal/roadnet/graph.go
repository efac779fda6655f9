// Package roadnet implements the spatial road network G_r of the paper
// (Definition 1): an undirected planar graph whose vertices are road
// intersections, whose edges are road segments weighted by Euclidean
// length, and on whose edges POIs and user homes are attached at parametric
// offsets. It provides exact shortest-path distances (Dijkstra with a
// typed binary heap, plus early-termination point-to-point search), a grid
// index for snapping arbitrary 2D locations onto the nearest road segment,
// and pivot distance tables that power the triangle-inequality distance
// bounds used by the GP-SSN pruning rules (Sections 3.3 and 4).
package roadnet

import (
	"fmt"
	"math"

	"gpssn/internal/geo"
)

// VertexID identifies a road-network vertex (intersection).
type VertexID int32

// EdgeID identifies a road segment.
type EdgeID int32

// halfEdge is one direction of an undirected road segment.
type halfEdge struct {
	to     VertexID
	weight float64
	edge   EdgeID
}

// Edge is a road segment between two intersections.
type Edge struct {
	U, V   VertexID
	Weight float64
}

// Graph is a spatial road network. Create with NewGraph, then add vertices
// and edges; the graph is usable immediately (no finalize step).
type Graph struct {
	pts        []geo.Point
	adj        [][]halfEdge
	edges      []Edge
	grid       *edgeGrid      // lazily built by SnapPoint
	gridBuilds int            // full grid (re)builds; mutations must not force one
	oracle     DistanceOracle // optional fast exact-distance backend (see oracle.go)
	inserts    insertStats    // road inserts since the oracle was attached
}

// NewGraph returns an empty road network with capacity hints.
func NewGraph(vertexHint, edgeHint int) *Graph {
	return &Graph{
		pts:   make([]geo.Point, 0, vertexHint),
		adj:   make([][]halfEdge, 0, vertexHint),
		edges: make([]Edge, 0, edgeHint),
	}
}

// AddVertex adds an intersection at p and returns its id. An attached
// DynamicOracle gives it a label; the snap grid indexes edges only, so it
// is untouched.
func (g *Graph) AddVertex(p geo.Point) VertexID {
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	g.noteVertex()
	return VertexID(len(g.pts) - 1)
}

// AddEdge adds an undirected road segment between u and v weighted by their
// Euclidean distance. It returns the new edge's id. Self-loops are
// rejected with a panic since road networks never contain them — callers
// holding untrusted input validate first (the facade road-mutation
// boundary returns typed errors; ImportCSV rejects with row numbers).
// An attached DynamicOracle updates its labels, any other oracle is
// detached (plain Dijkstra is exact over the grown graph), and the snap
// grid absorbs the new segment incrementally. stale reports that a
// DynamicOracle changed a label of an earlier edge's vertex, which leaves
// LabelTables built from it stale.
func (g *Graph) AddEdge(u, v VertexID) (id EdgeID, stale bool) {
	if u == v {
		panic(fmt.Sprintf("roadnet: self-loop at vertex %d", u))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	w := g.pts[u].Dist(g.pts[v])
	id = EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: w})
	g.adj[u] = append(g.adj[u], halfEdge{to: v, weight: w, edge: id})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, weight: w, edge: id})
	stale = g.noteEdge(u, v, w)
	g.gridInsertEdge(id)
	return id, stale
}

// Clone returns a deep copy of the graph's topology and geometry. The
// snap grid, the distance oracle and the insert counters are deliberately
// not carried over — the clone rebuilds its grid lazily and gets its own
// oracle — so the copy shares no mutable state with the original.
// Background re-contraction clones the graph off-lock and rebuilds
// against the copy while the original keeps serving.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		pts:   append([]geo.Point(nil), g.pts...),
		adj:   make([][]halfEdge, len(g.adj)),
		edges: append([]Edge(nil), g.edges...),
	}
	for i, a := range g.adj {
		ng.adj[i] = append([]halfEdge(nil), a...)
	}
	return ng
}

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	for _, he := range g.adj[u] {
		if he.to == v {
			return true
		}
	}
	return false
}

// NumVertices returns |V(G_r)|.
func (g *Graph) NumVertices() int { return len(g.pts) }

// NumEdges returns |E(G_r)|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertex returns the location of v.
func (g *Graph) Vertex(v VertexID) geo.Point {
	g.checkVertex(v)
	return g.pts[v]
}

// EdgeAt returns the edge with the given id.
func (g *Graph) EdgeAt(id EdgeID) Edge {
	if id < 0 || int(id) >= len(g.edges) {
		panic(fmt.Sprintf("roadnet: edge %d out of range", id))
	}
	return g.edges[id]
}

// EdgeSegment returns the geometry of the edge with the given id.
func (g *Graph) EdgeSegment(id EdgeID) geo.Segment {
	e := g.EdgeAt(id)
	return geo.Seg(g.pts[e.U], g.pts[e.V])
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v VertexID) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// AvgDegree returns the average vertex degree (the deg(G_r) statistic the
// paper reports in Table 2).
func (g *Graph) AvgDegree() float64 {
	if len(g.pts) == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(len(g.pts))
}

// Neighbors calls fn for each neighbour of v with the connecting edge's
// weight. Returning false stops iteration.
func (g *Graph) Neighbors(v VertexID, fn func(to VertexID, weight float64) bool) {
	g.checkVertex(v)
	for _, he := range g.adj[v] {
		if !fn(he.to, he.weight) {
			return
		}
	}
}

// Bounds returns the MBR of all vertices.
func (g *Graph) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for _, p := range g.pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// ConnectedComponents returns a component label per vertex and the number
// of components.
func (g *Graph) ConnectedComponents() (labels []int, n int) {
	labels = make([]int, len(g.pts))
	for i := range labels {
		labels[i] = -1
	}
	var stack []VertexID
	for start := range g.pts {
		if labels[start] >= 0 {
			continue
		}
		stack = append(stack[:0], VertexID(start))
		labels[start] = n
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, he := range g.adj[v] {
				if labels[he.to] < 0 {
					labels[he.to] = n
					stack = append(stack, he.to)
				}
			}
		}
		n++
	}
	return labels, n
}

// IsConnected reports whether the graph is a single connected component.
func (g *Graph) IsConnected() bool {
	if len(g.pts) == 0 {
		return true
	}
	_, n := g.ConnectedComponents()
	return n == 1
}

func (g *Graph) checkVertex(v VertexID) {
	if v < 0 || int(v) >= len(g.pts) {
		panic(fmt.Sprintf("roadnet: vertex %d out of range [0,%d)", v, len(g.pts)))
	}
}

// Attach is a location on the road network: a point on edge Edge at
// parametric offset T from the edge's U endpoint (T in [0,1]). POIs and
// user homes are Attach values; all road-network distances are measured
// between Attach points.
type Attach struct {
	Edge EdgeID
	T    float64
}

// AttachAt returns the attachment on the given edge at offset t (clamped).
func (g *Graph) AttachAt(id EdgeID, t float64) Attach {
	g.EdgeAt(id) // range check
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Attach{Edge: id, T: t}
}

// AttachVertex returns an attachment exactly at vertex v (using any
// incident edge). It panics when v is isolated, since an isolated vertex
// cannot host POIs or users.
func (g *Graph) AttachVertex(v VertexID) Attach {
	g.checkVertex(v)
	if len(g.adj[v]) == 0 {
		panic(fmt.Sprintf("roadnet: vertex %d is isolated", v))
	}
	he := g.adj[v][0]
	e := g.edges[he.edge]
	if e.U == v {
		return Attach{Edge: he.edge, T: 0}
	}
	return Attach{Edge: he.edge, T: 1}
}

// Location returns the 2D point of attachment a.
func (g *Graph) Location(a Attach) geo.Point {
	return g.EdgeSegment(a.Edge).At(a.T)
}

// attachEnds returns the two endpoint vertices of a's edge along with a's
// distance to each.
func (g *Graph) attachEnds(a Attach) (u, v VertexID, du, dv float64) {
	e := g.EdgeAt(a.Edge)
	return e.U, e.V, a.T * e.Weight, (1 - a.T) * e.Weight
}

// DistToVertexVia returns dist_RN(a, x) given a table of vertex distances
// dist (for example a pivot row or a Dijkstra result array). A table
// shorter than the current vertex count — a pivot row computed before
// vertices were appended — carries no information about the missing
// endpoints, which read as +Inf.
func (g *Graph) DistToVertexVia(a Attach, dist []float64) float64 {
	u, v, du, dv := g.attachEnds(a)
	x, y := math.Inf(1), math.Inf(1)
	if int(u) < len(dist) {
		x = du + dist[u]
	}
	if int(v) < len(dist) {
		y = dv + dist[v]
	}
	return math.Min(x, y)
}
