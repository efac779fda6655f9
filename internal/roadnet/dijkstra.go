package roadnet

import (
	"fmt"
	"math"
)

// distHeap is a typed binary min-heap of (vertex, dist) pairs. A typed heap
// avoids the interface allocations of container/heap in this hot path; the
// road network runs thousands of Dijkstra searches during index builds.
type distHeap struct {
	v []VertexID
	d []float64
}

func (h *distHeap) len() int { return len(h.v) }

func (h *distHeap) push(v VertexID, d float64) {
	h.v = append(h.v, v)
	h.d = append(h.d, d)
	i := len(h.v) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.d[p] <= h.d[i] {
			break
		}
		h.v[p], h.v[i] = h.v[i], h.v[p]
		h.d[p], h.d[i] = h.d[i], h.d[p]
		i = p
	}
}

func (h *distHeap) pop() (VertexID, float64) {
	v, d := h.v[0], h.d[0]
	last := len(h.v) - 1
	h.v[0], h.d[0] = h.v[last], h.d[last]
	h.v, h.d = h.v[:last], h.d[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h.d) && h.d[l] < h.d[s] {
			s = l
		}
		if r < len(h.d) && h.d[r] < h.d[s] {
			s = r
		}
		if s == i {
			break
		}
		h.v[s], h.v[i] = h.v[i], h.v[s]
		h.d[s], h.d[i] = h.d[i], h.d[s]
		i = s
	}
	return v, d
}

// Seed is a Dijkstra source: a vertex with an initial distance (non-zero
// initial distances arise when searching from an attachment point, which
// seeds the two endpoints of its edge).
type Seed struct {
	Vertex VertexID
	Dist   float64
}

// Dijkstra returns shortest-path distances from src to every vertex.
// Unreachable vertices get +Inf.
func (g *Graph) Dijkstra(src VertexID) []float64 {
	g.checkVertex(src)
	return g.DijkstraMulti([]Seed{{Vertex: src, Dist: 0}})
}

// DijkstraMulti returns shortest-path distances from the nearest seed to
// every vertex. Unreachable vertices get +Inf. When a distance oracle is
// attached the scan is answered by its one-to-all kernel (a PHAST-style
// sweep for the CH oracle) instead of a heap-driven search.
func (g *Graph) DijkstraMulti(seeds []Seed) []float64 {
	return g.DijkstraMultiCk(seeds, nil)
}

// DijkstraMultiCk is DijkstraMulti with a cooperative checkpoint: the scan
// reports settled vertices in checkStride batches and aborts once the
// checkpoint trips. An aborted scan returns all-+Inf — partial distances
// are discarded wholesale so a caller can never mistake an interrupted
// search for "those vertices are unreachable/far" on a per-entry basis;
// every finite distance ever returned is exact. ck may be nil (unchecked).
func (g *Graph) DijkstraMultiCk(seeds []Seed, ck *Checkpoint) []float64 {
	for _, s := range seeds {
		g.checkVertex(s.Vertex)
		if s.Dist < 0 {
			panic(fmt.Sprintf("roadnet: negative seed distance %v", s.Dist))
		}
	}
	dist := make([]float64, len(g.pts))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if ck.Stopped() {
		return dist
	}
	if g.oracle != nil {
		var res []float64
		if co, ok := g.oracle.(CheckedOracle); ok && ck != nil {
			res = co.OneToAllCk(seeds, ck)
		} else {
			res = g.oracle.OneToAll(seeds)
		}
		if ck.Stopped() {
			for i := range res {
				res[i] = math.Inf(1)
			}
		}
		return res
	}
	h := acquireHeap()
	for _, s := range seeds {
		if s.Dist < dist[s.Vertex] {
			dist[s.Vertex] = s.Dist
			h.push(s.Vertex, s.Dist)
		}
	}
	aborted := false
	sinceCheck := 0
	for h.len() > 0 {
		v, d := h.pop()
		if d > dist[v] {
			continue // stale entry
		}
		if sinceCheck++; sinceCheck >= checkStride {
			if ck.Spend(sinceCheck) {
				aborted = true
				break
			}
			sinceCheck = 0
		}
		for _, he := range g.adj[v] {
			nd := d + he.weight
			if nd < dist[he.to] {
				dist[he.to] = nd
				h.push(he.to, nd)
			}
		}
	}
	if !aborted {
		ck.Spend(sinceCheck)
	}
	releaseHeap(h)
	if ck.Stopped() {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
	}
	return dist
}

// boundedSearch runs a multi-seed Dijkstra into sc.dist, stopping once every
// target vertex is settled or the heap top exceeds bound. Distances for
// settled vertices are exact; others are +Inf (labels beyond the bound are
// never even pushed). targets may be nil (then bound alone stops the
// search); at most 64 targets are tracked for early exit — extra ones still
// get correct distances, they just stop terminating the scan early.
// Returns the number of vertices settled, which the early-termination
// regression test asserts shrinks with the bound.
//
// ck may be nil. When it trips mid-search the scan stops immediately; the
// caller must treat sc.dist as garbage (check ck.Stopped()) because the
// frontier beyond the last settled vertex is missing.
func (g *Graph) boundedSearch(sc *searchScratch, seeds []Seed, targets []VertexID, bound float64, ck *Checkpoint) int {
	var targetMask uint64 // bit i set ⇒ targets[i] still unsettled
	tracked := len(targets)
	if tracked > 64 {
		tracked = 64
	}
	if tracked > 0 {
		targetMask = (uint64(1) << uint(tracked)) - 1
	}
	h := &sc.heap
	for _, s := range seeds {
		if s.Dist <= bound && s.Dist < sc.dist[s.Vertex] {
			sc.set(s.Vertex, s.Dist)
			h.push(s.Vertex, s.Dist)
		}
	}
	settled := 0
	sinceCheck := 0
	for h.len() > 0 {
		v, d := h.pop()
		if d > sc.dist[v] {
			continue // stale entry
		}
		if d > bound {
			break
		}
		settled++
		if sinceCheck++; sinceCheck >= checkStride {
			if ck.Spend(sinceCheck) {
				return settled
			}
			sinceCheck = 0
		}
		if targetMask != 0 {
			for i := 0; i < tracked; i++ {
				if targets[i] == v {
					targetMask &^= uint64(1) << uint(i)
				}
			}
			if targetMask == 0 && len(targets) <= 64 {
				break
			}
		}
		for _, he := range g.adj[v] {
			nd := d + he.weight
			if nd <= bound && nd < sc.dist[he.to] {
				sc.set(he.to, nd)
				h.push(he.to, nd)
			}
		}
	}
	ck.Spend(sinceCheck)
	return settled
}

// DistAttach returns the exact road-network shortest-path distance between
// two attachment points (the paper's dist_RN). Points on the same edge may
// take the direct along-edge route or detour through either endpoint,
// whichever is shorter.
func (g *Graph) DistAttach(a, b Attach) float64 {
	au, av, dau, dav := g.attachEnds(a)
	bu, bv, dbu, dbv := g.attachEnds(b)

	best := math.Inf(1)
	if a.Edge == b.Edge {
		e := g.EdgeAt(a.Edge)
		best = math.Abs(a.T-b.T) * e.Weight
	}
	seeds := []Seed{{au, dau}, {av, dav}}
	targets := []VertexID{bu, bv}
	var du, dv float64
	if g.oracle != nil {
		d := g.oracle.SeedDistances(seeds, targets, best)
		du, dv = d[0], d[1]
	} else {
		sc := acquireScratch(len(g.pts))
		g.boundedSearch(sc, seeds, targets, best, nil)
		du, dv = sc.dist[bu], sc.dist[bv]
		sc.release()
	}
	if d := du + dbu; d < best {
		best = d
	}
	if d := dv + dbv; d < best {
		best = d
	}
	return best
}

// DistAttachMany returns dist_RN from a to each attachment in bs using a
// single search from a (far cheaper than len(bs) point-to-point runs).
// With an oracle attached the search is the many-to-many bucket kernel over
// just the attachment endpoints instead of a full one-to-all scan.
func (g *Graph) DistAttachMany(a Attach, bs []Attach) []float64 {
	return g.distAttachBatch(a, math.Inf(1), bs, nil)
}

// DistAttachManyCk is DistAttachMany with a cooperative checkpoint; once it
// trips, every candidate distance is reported as +Inf (no partial values).
// ck may be nil.
func (g *Graph) DistAttachManyCk(a Attach, bs []Attach, ck *Checkpoint) []float64 {
	return g.distAttachBatch(a, math.Inf(1), bs, ck)
}

// DistAttachWithin returns dist_RN(a, c) for each candidate c, reported
// only when it is ≤ bound; farther candidates get +Inf. It runs a single
// Dijkstra truncated at bound, so the cost is proportional to the size of
// the ball around a rather than the whole network. The GP-SSN index build
// uses it to materialize the POI balls ⊙(o_i, r_min), and the query
// refinement uses it to materialize answer balls ⊙(o_i, r).
func (g *Graph) DistAttachWithin(a Attach, bound float64, cands []Attach) []float64 {
	return g.distAttachBatch(a, bound, cands, nil)
}

// DistAttachWithinCk is DistAttachWithin with a cooperative checkpoint;
// once it trips, every candidate distance is reported as +Inf (no partial
// values). ck may be nil.
func (g *Graph) DistAttachWithinCk(a Attach, bound float64, cands []Attach, ck *Checkpoint) []float64 {
	return g.distAttachBatch(a, bound, cands, ck)
}

// distAttachBatch is the shared implementation of DistAttachMany
// (bound = +Inf) and DistAttachWithin (finite bound): distances from a to
// each candidate, with values beyond the bound clamped to +Inf. An aborted
// (checkpoint-tripped) batch reports every candidate as +Inf so no caller
// ever consumes a distance from an interrupted search.
func (g *Graph) distAttachBatch(a Attach, bound float64, cands []Attach, ck *Checkpoint) []float64 {
	out := make([]float64, len(cands))
	if ck.Stopped() {
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out
	}
	au, av, dau, dav := g.attachEnds(a)
	seeds := []Seed{{au, dau}, {av, dav}}

	if g.oracle != nil {
		// Query only the candidates' edge endpoints, deduplicated, through
		// the oracle's many-to-many kernel.
		targets := make([]VertexID, 0, 2*len(cands))
		for _, c := range cands {
			cu, cv, _, _ := g.attachEnds(c)
			targets = append(targets, cu, cv)
		}
		var vd []float64
		if co, ok := g.oracle.(CheckedOracle); ok && ck != nil {
			vd = co.SeedDistancesCk(seeds, targets, bound, ck)
		} else {
			vd = g.oracle.SeedDistances(seeds, targets, bound)
		}
		if ck.Stopped() {
			for i := range out {
				out[i] = math.Inf(1)
			}
			return out
		}
		for i, c := range cands {
			_, _, dcu, dcv := g.attachEnds(c)
			d := math.Min(vd[2*i]+dcu, vd[2*i+1]+dcv)
			out[i] = g.finishAttachDist(a, c, d, bound)
		}
		return out
	}

	// The candidates' edge endpoints double as early-exit targets while
	// boundedSearch can track them all (≤ 64): an unbounded evaluation
	// against a small ball then stops once the ball is settled instead of
	// sweeping the whole graph. Settled distances are final either way, so
	// the early exit changes only the work, never a value.
	var tbuf [64]VertexID
	targets := tbuf[:0]
	if 2*len(cands) <= len(tbuf) {
		for _, c := range cands {
			cu, cv, _, _ := g.attachEnds(c)
			targets = append(targets, cu, cv)
		}
	}
	sc := acquireScratch(len(g.pts))
	g.boundedSearch(sc, seeds, targets, bound, ck)
	if ck.Stopped() {
		sc.release()
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out
	}
	for i, c := range cands {
		out[i] = g.finishAttachDist(a, c, g.DistToVertexVia(c, sc.dist), bound)
	}
	sc.release()
	return out
}

// finishAttachDist applies the same-edge direct route and the bound clamp
// shared by every attachment-distance shape.
func (g *Graph) finishAttachDist(a, c Attach, d, bound float64) float64 {
	if c.Edge == a.Edge {
		e := g.EdgeAt(a.Edge)
		if direct := math.Abs(a.T-c.T) * e.Weight; direct < d {
			d = direct
		}
	}
	if d > bound {
		return math.Inf(1)
	}
	return d
}

// ShortestPath returns the distance and the vertex sequence of a shortest
// path between two vertices, or +Inf and nil when unreachable.
func (g *Graph) ShortestPath(src, dst VertexID) (float64, []VertexID) {
	g.checkVertex(src)
	g.checkVertex(dst)
	dist := make([]float64, len(g.pts))
	prev := make([]VertexID, len(g.pts))
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	h := &distHeap{}
	h.push(src, 0)
	for h.len() > 0 {
		v, d := h.pop()
		if d > dist[v] {
			continue
		}
		if v == dst {
			break
		}
		for _, he := range g.adj[v] {
			nd := d + he.weight
			if nd < dist[he.to] {
				dist[he.to] = nd
				prev[he.to] = v
				h.push(he.to, nd)
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return dist[dst], nil
	}
	var path []VertexID
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[dst], path
}
