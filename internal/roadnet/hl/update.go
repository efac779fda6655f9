package hl

import (
	"math"
	"sort"

	"gpssn/internal/roadnet"
)

// Road inserts keep the labels an exact 2-hop cover (docs/ALGORITHMS.md,
// "Road inserts: labels that stay exact"). The update follows Akiba, Iwata
// and Yoshida's incremental pruned landmark labeling, restricted by rank:
//
//   - A new vertex takes the lowest rank, rank position n, and the label
//     {self: 0}. It has no edge, so nothing else changes.
//   - A new edge a–b of weight w: for each entry (h, d) of L(a), in
//     ascending rank position, a Dijkstra search resumes from b at
//     d + w. It visits only vertices ranked below h, and at each settled
//     vertex v with distance δ it stops if the current labels already
//     give Query(h, v) ≤ δ; otherwise it writes (h, δ) into L(v) and
//     goes on. Then the same from b's side.
//
// Every entry stays the length of a real path, so no query can fall below
// the true distance; the search restores the entries the pairs whose
// distance fell need. A hub is only ever written into the label of a
// vertex ranked below it, so every label keeps its hubs at or below the
// owner's position with the self-entry last, which the merges and the
// codec rely on.

// update is AddEdge's reusable search state.
type update struct {
	dist    []float64 // tentative distances by vertex id; +Inf outside a search
	touched []roadnet.VertexID
	heap    roadnet.DistHeap
	hubs    []int32 // the label being resumed, copied: writes may move it
	hd      []float64
}

// AddVertex gives the vertex the graph has just appended, id n, the lowest
// rank and the label {self: 0}.
func (o *Oracle) AddVertex() {
	p := int32(o.n)
	o.pos = append(o.pos, p)
	o.off = append(o.off, int64(len(o.hub)), int64(len(o.hub))+1)
	o.hub = append(o.hub, p)
	o.dist = append(o.dist, 0)
	o.n++
	o.live++
	o.maxLabel = max(o.maxLabel, 1)
}

// AddEdge updates the labels for the edge a–b of weight w that g has just
// gained. It reports whether it changed the label of a vertex that had an
// edge before this one: only then can a distance between points on the
// graph's earlier edges have fallen, or a label derived from them (a
// label-table row) have gone stale. For a pendant vertex — a new end with
// no other edge — it reports false.
func (o *Oracle) AddEdge(g *roadnet.Graph, a, b roadnet.VertexID, w float64) (stale bool) {
	u := &o.upd
	for len(u.dist) < o.n {
		u.dist = append(u.dist, math.Inf(1))
	}
	for _, e := range [2][2]roadnet.VertexID{{a, b}, {b, a}} {
		hubs, dist := o.label(int32(e[0]))
		u.hubs = append(u.hubs[:0], hubs...)
		u.hd = append(u.hd[:0], dist...)
		for i, h := range u.hubs {
			if o.resume(g, h, e[1], u.hd[i]+w, a, b) {
				stale = true
			}
		}
	}
	return stale
}

// resume runs hub h's search from start at distance d0 over the vertices
// ranked below h, writing (h, δ) into every label the current labels do
// not already cover at δ, and reports whether one of them belongs to a
// vertex that had an edge before the new edge a–b.
func (o *Oracle) resume(g *roadnet.Graph, h int32, start roadnet.VertexID, d0 float64, a, b roadnet.VertexID) (stale bool) {
	u := &o.upd
	if o.pos[start] <= h {
		return false
	}
	u.relax(start, d0)
	for u.heap.Len() > 0 {
		v, d := u.heap.Pop()
		if d > u.dist[v] {
			continue
		}
		hH, hD := o.labelAt(h)
		vH, vD := o.label(int32(v))
		if mergeDist(hH, hD, vH, vD) <= d {
			continue
		}
		o.write(o.pos[v], h, d)
		if (v != a && v != b) || g.Degree(v) > 1 {
			stale = true
		}
		g.Neighbors(v, func(x roadnet.VertexID, wx float64) bool {
			if o.pos[x] > h {
				u.relax(x, d+wx)
			}
			return true
		})
	}
	for _, v := range u.touched {
		u.dist[v] = math.Inf(1)
	}
	u.touched = u.touched[:0]
	return stale
}

// write sets the entry for hub h in the label at rank position p to d,
// inserting it in hub order when the label has none. A label at the end of
// the store grows in place; any other moves there, leaving its old entries
// dead.
func (o *Oracle) write(p, h int32, d float64) {
	lo, hi := o.off[2*p], o.off[2*p+1]
	i := lo + int64(sort.Search(int(hi-lo), func(k int) bool { return o.hub[lo+int64(k)] >= h }))
	if i < hi && o.hub[i] == h {
		o.dist[i] = d
		return
	}
	size := hi - lo
	if hi == int64(len(o.hub)) {
		o.hub = append(o.hub, 0)
		o.dist = append(o.dist, 0)
		copy(o.hub[i+1:], o.hub[i:hi])
		copy(o.dist[i+1:], o.dist[i:hi])
	} else {
		start := int64(len(o.hub))
		o.hub = append(o.hub, o.hub[lo:i]...)
		o.hub = append(o.hub, h)
		o.hub = append(o.hub, o.hub[i:hi]...)
		o.dist = append(o.dist, o.dist[lo:i]...)
		o.dist = append(o.dist, d)
		o.dist = append(o.dist, o.dist[i:hi]...)
		i, lo = start+(i-lo), start
	}
	o.hub[i], o.dist[i] = h, d
	o.off[2*p], o.off[2*p+1] = lo, lo+size+1
	o.live++
	o.maxLabel = max(o.maxLabel, int(size+1))
}

// relax lowers v's tentative distance to d and queues it.
func (u *update) relax(v roadnet.VertexID, d float64) {
	if d >= u.dist[v] {
		return
	}
	if math.IsInf(u.dist[v], 1) {
		u.touched = append(u.touched, v)
	}
	u.dist[v] = d
	u.heap.Push(v, d)
}

var _ roadnet.DynamicOracle = (*Oracle)(nil)
