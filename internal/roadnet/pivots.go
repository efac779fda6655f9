package roadnet

import (
	"fmt"
	"math"
)

// PivotTable stores exact shortest-path distances from h pivot vertices to
// every vertex of the road network (Section 4.1: each POI and each user
// keeps its distances dist_RN(·, rp_k) to the road-network pivots). The
// table supports the triangle-inequality lower distance bounds of Lemma 5
// and Eq. (16)/(17).
type PivotTable struct {
	pivots []VertexID
	dist   [][]float64 // dist[k][v] = dist_RN(rp_k, v)
}

// BuildPivotTable runs one Dijkstra per pivot and returns the table.
func BuildPivotTable(g *Graph, pivots []VertexID) *PivotTable {
	if len(pivots) == 0 {
		panic("roadnet: BuildPivotTable needs at least one pivot")
	}
	t := &PivotTable{
		pivots: append([]VertexID(nil), pivots...),
		dist:   make([][]float64, len(pivots)),
	}
	for k, p := range pivots {
		t.dist[k] = g.Dijkstra(p)
	}
	return t
}

// AddEdge brings the rows up to date after g gained edge id: each row
// grows to g's vertex count (+Inf for vertices appended since), then one
// decrease-only Dijkstra per pivot from the edge's ends lowers the
// distances the edge shortens, which are exactly the vertices it reaches.
// It returns those vertices, less an end the edge is the only one of: no
// object sat on an edge at it before. For a pendant vertex, whose only
// edge shortens no path between older vertices, that is none.
func (t *PivotTable) AddEdge(g *Graph, id EdgeID) []VertexID {
	e := g.EdgeAt(id)
	var fell []VertexID
	seen := make(map[VertexID]bool)
	h := acquireHeap()
	for k, row := range t.dist {
		for len(row) < g.NumVertices() {
			row = append(row, math.Inf(1))
		}
		t.dist[k] = row
		for _, ends := range [2][2]VertexID{{e.U, e.V}, {e.V, e.U}} {
			if d := row[ends[0]] + e.Weight; d < row[ends[1]] {
				row[ends[1]] = d
				h.Push(ends[1], d)
			}
		}
		for h.Len() > 0 {
			x, d := h.Pop()
			if d > row[x] {
				continue
			}
			if !seen[x] && ((x != e.U && x != e.V) || g.Degree(x) > 1) {
				seen[x] = true
				fell = append(fell, x)
			}
			for _, he := range g.adj[x] {
				if nd := d + he.weight; nd < row[he.to] {
					row[he.to] = nd
					h.Push(he.to, nd)
				}
			}
		}
	}
	releaseHeap(h)
	return fell
}

// NumPivots returns h, the number of road-network pivots.
func (t *PivotTable) NumPivots() int { return len(t.pivots) }

// Pivots returns the pivot vertex ids.
func (t *PivotTable) Pivots() []VertexID { return t.pivots }

// Row returns the full distance array of pivot k. Callers must treat it as
// read-only.
func (t *PivotTable) Row(k int) []float64 {
	t.check(k)
	return t.dist[k]
}

// AttachDistAll returns dist_RN(a, rp_k) for every pivot k, in pivot order.
// These are the per-object distance vectors stored in index leaf entries.
func (t *PivotTable) AttachDistAll(g *Graph, a Attach) []float64 {
	out := make([]float64, len(t.pivots))
	for k := range t.pivots {
		out[k] = g.DistToVertexVia(a, t.dist[k])
	}
	return out
}

// LowerBound returns a triangle-inequality lower bound on dist_RN between
// two objects given their pivot-distance vectors:
//
//	lb = max_k |da[k] - db[k]|.
func LowerBound(da, db []float64) float64 {
	if len(da) != len(db) {
		panic(fmt.Sprintf("roadnet: pivot vector length mismatch %d != %d", len(da), len(db)))
	}
	lb := 0.0
	for k := range da {
		if math.IsInf(da[k], 1) || math.IsInf(db[k], 1) {
			continue // pivot unreachable from one side: no information
		}
		if d := math.Abs(da[k] - db[k]); d > lb {
			lb = d
		}
	}
	return lb
}

func (t *PivotTable) check(k int) {
	if k < 0 || k >= len(t.pivots) {
		panic(fmt.Sprintf("roadnet: pivot %d out of range [0,%d)", k, len(t.pivots)))
	}
}
