package roadnet

import (
	"math"
	"slices"

	"gpssn/internal/geo"
)

// This file is the graph's record of its base G0: the graph as it stood
// when the state derived from it — an oracle, pivot tables, keyword rows,
// label tables — was built. Edges appended since are new; the vertices of
// G0 they touch are the old portals. Every edge weight is the Euclidean
// length of its segment, so a path between two points that uses any new
// edge runs through an old portal and is at least as long as the point's
// Euclidean distance to it. A path between x and y, one of them on an edge
// of G0, that uses a new edge leaves or enters G0 at an old portal, so
//
//	d_G(x, y) = min(d_G0(x, y), via)   with   via ≥ E(x) + E(y),
//
// E(·) the Euclidean distance to the nearest old portal (Clearance). A
// distance or a lower bound derived from G0 is therefore exact, or sound,
// in G wherever that Euclidean term decides (docs/ALGORITHMS.md, "Pending
// road edges — the clearance rule").

// baseMark is the graph's base G0 and the old portals edges appended since
// have touched.
type baseMark struct {
	set     bool
	n, e    int        // vertices and edges of G0
	portals []VertexID // vertices of G0 incident to a new edge, in insertion order
}

// MarkBase records the graph as it stands as its base G0, unless an edge
// has been appended since an earlier mark: state derived from that older
// base may still be live, and measuring against the older base stays
// sound for anything derived since (its new edges are a superset).
// SetDistanceOracle marks too, so the base of a served graph is its
// oracle's; an engine marks the graph it is built over.
func (g *Graph) MarkBase() {
	if g.base.set && len(g.edges) > g.base.e {
		return
	}
	g.base = baseMark{set: true, n: len(g.pts), e: len(g.edges)}
}

// noteBaseEdge records the old endpoints of edge u–v, appended after the
// base, as portals.
func (g *Graph) noteBaseEdge(u, v VertexID) {
	if !g.base.set {
		return
	}
	for _, x := range [2]VertexID{u, v} {
		if int(x) < g.base.n && !slices.Contains(g.base.portals, x) {
			g.base.portals = append(g.base.portals, x)
		}
	}
}

// PendingEdges returns how many edges have been appended since the base.
func (g *Graph) PendingEdges() int {
	if !g.base.set {
		return 0
	}
	return len(g.edges) - g.base.e
}

// NewEdge reports whether edge id was appended after the base: nothing
// derived from G0 knows it, and a point on it has no G0 distance.
func (g *Graph) NewEdge(id EdgeID) bool {
	return g.base.set && int(id) >= g.base.e
}

// Clearance returns the Euclidean distance from p to the nearest old
// portal, or +Inf when no edge appended since the base touches G0. It
// costs one distance per old portal.
func (g *Graph) Clearance(p geo.Point) float64 {
	return g.ClearanceRect(geo.RectFromPoint(p))
}

// ClearanceRect is Clearance for the nearest point of r: a lower bound on
// the clearance of every point inside r.
func (g *Graph) ClearanceRect(r geo.Rect) float64 {
	c := math.Inf(1)
	for _, v := range g.base.portals {
		c = min(c, r.MinDistPoint(g.pts[v]))
	}
	return c
}

// AttachClearance is E(a) for an object at a: the clearance of its
// location, or 0 when a lies on a new edge. The 0 keeps every use sound: a
// path from a to a point on an edge of G0 still passes an old portal, so
// via ≥ E(a) + E(y) holds with E(a) = 0, and no G0 quantity is trusted
// for a itself.
func (g *Graph) AttachClearance(a Attach) float64 {
	if g.NewEdge(a.Edge) {
		return 0
	}
	return g.Clearance(g.Location(a))
}
