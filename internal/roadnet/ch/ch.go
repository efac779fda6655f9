// Package ch implements an exact contraction-hierarchy (CH) distance
// oracle for the road network (Geisberger et al., "Contraction
// Hierarchies: Faster and Simpler Hierarchical Routing in Road Networks").
//
// Preprocessing contracts vertices one by one in importance order
// (edge-difference plus deleted-neighbours heuristic, with lazy priority
// re-evaluation), inserting a shortcut (u,w) of weight d(u,v)+d(v,w)
// whenever removing v would break a shortest path that a bounded witness
// search cannot re-certify. The result is stored as one CSR adjacency:
// each vertex keeps its "up" edges, those to higher-ranked endpoints,
// which is all the upward searches of a query walk.
//
// Queries (query.go) implement the roadnet.DistanceOracle interface with
// a bucket-based many-to-many kernel with stall-on-demand for the bounded
// attachment-distance shapes. All query state is pooled and
// epoch-stamped, so the oracle is safe for concurrent use by parallel
// refinement workers.
//
// Package hl extracts hub labels from a built Oracle (its rank order and
// up-arcs) for even faster point-to-point distances, and keeps nothing of
// it; the facade's fallback chain (hl → ch → dijkstra, docs/ROBUSTNESS.md
// §6) degrades through this package when label extraction is
// unavailable.
package ch

import (
	"sync"

	"gpssn/internal/roadnet"
)

// witnessSettleLimit caps the number of vertices a witness search may
// settle. A smaller cap speeds preprocessing but may insert redundant
// shortcuts (never incorrect ones: a missed witness only means an
// unnecessary shortcut).
const witnessSettleLimit = 250

// Oracle is an immutable contraction hierarchy over a road-network
// snapshot. Build once, then query concurrently.
type Oracle struct {
	n    int
	rank []int32   // contraction order; higher = more important
	up   csr       // edges to higher-ranked endpoints
	pool sync.Pool // *scratch (query.go)
}

// MemoryBytes reports the resident size of the hierarchy (rank array and
// up-edge CSR) for capacity telemetry.
func (o *Oracle) MemoryBytes() int64 {
	return int64(len(o.rank))*4 + int64(len(o.up.off))*4 + int64(len(o.up.to))*4 + int64(len(o.up.w))*8
}

// NumVertices reports the size of the graph snapshot the oracle covers.
func (o *Oracle) NumVertices() int { return o.n }

// VerticesByRankDesc returns the vertices in descending rank order, in a
// fresh slice the caller owns. It is the processing order for hub-label
// extraction (internal/roadnet/hl), which needs every higher-ranked label
// finished before a vertex is labelled.
func (o *Oracle) VerticesByRankDesc() []int32 {
	byRank := make([]int32, o.n)
	for v, r := range o.rank {
		byRank[o.n-1-int(r)] = int32(v)
	}
	return byRank
}

// UpArcs returns the up-edge adjacency of v (arcs to higher-ranked
// endpoints, shortcuts included) as parallel read-only slices.
func (o *Oracle) UpArcs(v int32) (to []int32, w []float64) {
	return o.up.to[o.up.off[v]:o.up.off[v+1]], o.up.w[o.up.off[v]:o.up.off[v+1]]
}

// csr is a compressed sparse row adjacency: arcs of vertex v occupy
// [off[v], off[v+1]) in to/w.
type csr struct {
	off []int32
	to  []int32
	w   []float64
}

// arc is a working-graph edge during preprocessing.
type arc struct {
	to int32
	w  float64
}

// Build preprocesses g into a contraction hierarchy.
func Build(g *roadnet.Graph) *Oracle {
	n := g.NumVertices()
	b := &builder{
		n:          n,
		adj:        make([][]arc, n),
		contracted: make([]bool, n),
		rank:       make([]int32, n),
		delNbrs:    make([]int32, n),
		wDist:      make([]float64, n),
		wVer:       make([]uint32, n),
		tVer:       make([]uint32, n),
	}
	for v := 0; v < n; v++ {
		vid := roadnet.VertexID(v)
		g.Neighbors(vid, func(to roadnet.VertexID, w float64) bool {
			b.addArc(int32(v), int32(to), w) // dedups parallel edges, keeps min
			return true
		})
	}
	b.contractAll()
	return b.finish()
}

type builder struct {
	n          int
	adj        [][]arc // current graph incl. shortcuts; min weight per pair
	contracted []bool
	rank       []int32
	delNbrs    []int32 // deleted-neighbours term of the priority

	// witness-search scratch, epoch-stamped so each search starts clean
	// without an O(n) reset.
	wDist  []float64
	wVer   []uint32
	wEpoch uint32
	wHeap  heap64
	// target stamps let a witness search stop as soon as every remaining
	// neighbour pair is settled instead of running to the settle limit.
	tVer   []uint32
	tEpoch uint32

	// buffers reused across contraction steps.
	scBuf   []shortcut
	nbrsBuf []arc
}

type shortcut struct {
	u, w int32
	wt   float64
}

// addArc records arc from→to with weight wt, keeping the minimum when a
// parallel arc already exists. Callers add both directions.
func (b *builder) addArc(from, to int32, wt float64) {
	for i := range b.adj[from] {
		if b.adj[from][i].to == to {
			if wt < b.adj[from][i].w {
				b.adj[from][i].w = wt
			}
			return
		}
	}
	b.adj[from] = append(b.adj[from], arc{to: to, w: wt})
}

// contractAll runs the lazy-update contraction loop.
func (b *builder) contractAll() {
	pq := heap64{}
	for v := 0; v < b.n; v++ {
		pq.push(int32(v), b.priority(int32(v)))
	}
	next := int32(0)
	for pq.len() > 0 {
		v, _ := pq.pop()
		if b.contracted[v] {
			continue
		}
		// Lazy re-evaluation: the stored priority may be stale because
		// neighbours were contracted since it was pushed. Recompute (keeping
		// the shortcut list the simulation produced); if the vertex no
		// longer beats the queue head, push it back and try again.
		// Priorities are stable between contractions, so two candidates
		// cannot ping-pong forever.
		b.scBuf = b.scBuf[:0]
		needed, deg := b.simulate(v, &b.scBuf)
		cur := 2*float64(needed-deg) + float64(b.delNbrs[v])
		if pq.len() > 0 && cur > pq.topKey()+1e-12 {
			pq.push(v, cur)
			continue
		}
		b.contract(v, next)
		next++
	}
}

// priority is the importance heuristic: 2·edgeDifference + deletedNeighbours.
// Edge difference = shortcuts a contraction would add minus arcs it removes;
// deleted neighbours spreads contraction evenly across the network.
func (b *builder) priority(v int32) float64 {
	needed, deg := b.simulate(v, nil)
	return 2*float64(needed-deg) + float64(b.delNbrs[v])
}

// contract removes v from the remaining graph, materializing the shortcuts
// collected in scBuf by the immediately preceding simulate call, and
// assigns v the next rank.
func (b *builder) contract(v, rank int32) {
	for _, sc := range b.scBuf {
		b.addArc(sc.u, sc.w, sc.wt)
		b.addArc(sc.w, sc.u, sc.wt)
	}
	b.contracted[v] = true
	b.rank[v] = rank
	for _, a := range b.adj[v] {
		if !b.contracted[a.to] {
			b.delNbrs[a.to]++
		}
	}
}

// simulate determines which shortcuts contracting v would require, using a
// bounded witness search per remaining neighbour pair. It returns the
// number of shortcuts and the count of remaining neighbours; when collect
// is non-nil the shortcuts are appended to it.
func (b *builder) simulate(v int32, collect *[]shortcut) (needed, deg int) {
	nbrs := b.nbrsBuf[:0]
	for _, a := range b.adj[v] {
		if !b.contracted[a.to] {
			nbrs = append(nbrs, a)
		}
	}
	b.nbrsBuf = nbrs
	deg = len(nbrs)
	for i, un := range nbrs {
		// One witness search from u covers all pairs (u, w_j), j > i.
		maxT := 0.0
		for _, wn := range nbrs[i+1:] {
			if wn.w > maxT {
				maxT = wn.w
			}
		}
		if len(nbrs[i+1:]) == 0 {
			continue
		}
		b.witnessSearch(un.to, v, un.w+maxT, nbrs[i+1:])
		for _, wn := range nbrs[i+1:] {
			via := un.w + wn.w // d(u,v) + d(v,w)
			if wd, ok := b.witnessDist(wn.to); !ok || wd > via {
				needed++
				if collect != nil {
					*collect = append(*collect, shortcut{u: un.to, w: wn.to, wt: via})
				}
			}
		}
	}
	return needed, deg
}

// witnessSearch runs a bounded Dijkstra from src on the remaining graph
// with `excluded` removed, settling at most witnessSettleLimit vertices, ignoring
// labels beyond bound, and stopping as soon as every target is settled.
// Results are read back via witnessDist. Stopping early only means fewer
// witnesses found, which yields extra (redundant, never incorrect)
// shortcuts.
func (b *builder) witnessSearch(src, excluded int32, bound float64, targets []arc) {
	b.wEpoch++
	if b.wEpoch == 0 { // stamp wrap: reset and restart epochs
		for i := range b.wVer {
			b.wVer[i] = 0
		}
		b.wEpoch = 1
	}
	b.tEpoch++
	if b.tEpoch == 0 {
		for i := range b.tVer {
			b.tVer[i] = 0
		}
		b.tEpoch = 1
	}
	remaining := 0
	for _, t := range targets {
		if b.tVer[t.to] != b.tEpoch {
			b.tVer[t.to] = b.tEpoch
			remaining++
		}
	}
	ep := b.wEpoch
	h := &b.wHeap
	h.reset()
	b.wDist[src] = 0
	b.wVer[src] = ep
	h.push(src, 0)
	settled := 0
	for h.len() > 0 && settled < witnessSettleLimit {
		v, d := h.pop()
		if d > b.wDist[v] {
			continue
		}
		settled++
		if b.tVer[v] == b.tEpoch {
			b.tVer[v] = 0
			remaining--
			if remaining == 0 {
				break
			}
		}
		for _, a := range b.adj[v] {
			if a.to == excluded || b.contracted[a.to] {
				continue
			}
			nd := d + a.w
			if nd > bound {
				continue
			}
			if b.wVer[a.to] != ep || nd < b.wDist[a.to] {
				b.wVer[a.to] = ep
				b.wDist[a.to] = nd
				h.push(a.to, nd)
			}
		}
	}
}

// witnessDist reports the label the last witnessSearch left on v.
func (b *builder) witnessDist(v int32) (float64, bool) {
	if b.wVer[v] != b.wEpoch {
		return 0, false
	}
	return b.wDist[v], true
}

// finish freezes the contracted graph into the up-edge CSR: the arcs
// leading to higher-ranked endpoints. The down arcs are each some up arc
// seen from the other end, and no query walks them.
func (b *builder) finish() *Oracle {
	o := &Oracle{n: b.n, rank: b.rank}
	off := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		for _, a := range b.adj[v] {
			if b.rank[a.to] > b.rank[v] {
				off[v+1]++
			}
		}
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	o.up = csr{off: off, to: make([]int32, 0, off[b.n]), w: make([]float64, 0, off[b.n])}
	for v := 0; v < b.n; v++ {
		for _, a := range b.adj[v] {
			if b.rank[a.to] > b.rank[v] {
				o.up.to = append(o.up.to, a.to)
				o.up.w = append(o.up.w, a.w)
			}
		}
	}
	return o
}

// heap64 is a typed binary min-heap of (vertex, key) pairs, mirroring
// roadnet's distHeap to avoid container/heap interface allocations.
type heap64 struct {
	v []int32
	d []float64
}

func (h *heap64) len() int        { return len(h.v) }
func (h *heap64) reset()          { h.v, h.d = h.v[:0], h.d[:0] }
func (h *heap64) topKey() float64 { return h.d[0] }

func (h *heap64) push(v int32, d float64) {
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

func (h *heap64) pop() (int32, float64) {
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
