package roadnet

import (
	"math"
	"sync/atomic"
)

// This file is the delta-overlay that keeps a static distance oracle
// (CH or hub labels) attached and *exact* after the graph mutates. The
// static oracle answers for the frozen base graph G0 (the first baseN
// vertices and the edges present when it was built); mutations append
// vertices and edges on top. Every composed distance is
//
//	d_G(s,t) = min( d_G0(s,t),  entry → portal-patch → exit )
//
// where the portals P are the old vertices incident to at least one new
// edge plus every new vertex, and patch[i][j] is the exact shortest-path
// distance between portals p_i and p_j in the *full* mutated graph G.
// A path that uses any new edge must pass through a portal immediately
// before its first new edge and immediately after its last one, and the
// segments outside that window live entirely in G0 — so taking the
// minimum over (entry portal, exit portal) pairs is exact, not a bound.
//
// The patch matrix is the all-pairs closure of the portal graph H:
// a clique over the old portals weighted by exact d_G0 (delegated to the
// base oracle) plus the new edges themselves. It is maintained
// incrementally, never recomputed from scratch:
//
//   - inserting an old vertex as a portal costs one base-oracle
//     many-to-many query plus an O(k) closure row
//     row[j] = min_i d0[i] + patch[i][j]; existing pairs cannot improve
//     because a detour through an old vertex with no new incident edges
//     is already dominated by d_G0's triangle inequality;
//   - inserting a new vertex is a +Inf row with a zero diagonal;
//   - inserting an edge (u,v,w) is one O(k²) relaxation
//     patch[i][j] = min(patch[i][j], ru[i]+w+rv[j], rv[i]+w+ru[j])
//     over copies of u's and v's closed rows. One pass is exact because
//     a shortest path is simple and therefore crosses the new edge at
//     most once.
//
// Queries stay oracle-class: a composed SeedDistances costs at most two
// base-oracle many-to-many calls plus O(k²) portal arithmetic, and a
// composed OneToAll at most two base sweeps. The overlay implements
// CheckedOracle so cancellation and work budgets thread through to the
// base calls, but deliberately not LabelOracle: label attach assumes frozen
// topology, so those callers degrade to the composed (still exact, still
// oracle-backed) SeedDistances and OneToAll until the next re-contraction
// swaps in a fresh static oracle.
type overlayOracle struct {
	base     DistanceOracle
	baseN    int // |V(G0)|: vertices the base oracle answers for
	newVerts int // vertices appended after the oracle was built
	newEdges int // edges appended after the oracle was built

	portals []VertexID       // portal vertex ids, in insertion order
	idx     map[VertexID]int // vertex id → index into portals/patch
	patch   [][]float64      // closed all-pairs portal distances in G

	queries atomic.Int64 // composed distance calls served
}

func newOverlay(base DistanceOracle, baseN int) *overlayOracle {
	return &overlayOracle{base: base, baseN: baseN, idx: make(map[VertexID]int)}
}

// noteAddVertex records a freshly appended vertex. Every new vertex is a
// portal from birth — even isolated ones — so that seeds and targets
// placed on it (or on its future edges) compose without special cases.
func (o *overlayOracle) noteAddVertex() {
	id := VertexID(o.baseN + o.newVerts)
	o.newVerts++
	o.addNewPortal(id)
}

// noteAddEdge folds a freshly appended edge into the patch closure.
// Both endpoints become portals (costing at most one base-oracle query
// each), then a single O(k²) relaxation closes the matrix over the edge.
func (o *overlayOracle) noteAddEdge(u, v VertexID, w float64) {
	o.newEdges++
	o.ensurePortal(u)
	o.ensurePortal(v)
	iu, iv := o.idx[u], o.idx[v]
	// Relax against copies: the loop writes rows iu and iv, and reading a
	// half-updated row would thread the new edge through itself.
	ru := append([]float64(nil), o.patch[iu]...)
	rv := append([]float64(nil), o.patch[iv]...)
	for i, row := range o.patch {
		a, b := ru[i]+w, rv[i]+w
		for j := range row {
			if d := a + rv[j]; d < row[j] {
				row[j] = d
			}
			if d := b + ru[j]; d < row[j] {
				row[j] = d
			}
		}
	}
}

// ensurePortal makes v a portal if it is not one already. New vertices
// are portals from noteAddVertex; this path is for old (base) vertices
// gaining their first new incident edge.
func (o *overlayOracle) ensurePortal(v VertexID) {
	if _, ok := o.idx[v]; ok {
		return
	}
	// Exact G0 distances from v to every existing old portal, via the
	// base oracle. New-vertex portals are unreachable within G0 (+Inf).
	oldPortals := make([]VertexID, 0, len(o.portals))
	oldPos := make([]int, 0, len(o.portals))
	for i, p := range o.portals {
		if int(p) < o.baseN {
			oldPortals = append(oldPortals, p)
			oldPos = append(oldPos, i)
		}
	}
	d0 := make([]float64, len(o.portals))
	for i := range d0 {
		d0[i] = math.Inf(1)
	}
	if len(oldPortals) > 0 {
		ds := o.base.SeedDistances([]Seed{{Vertex: v, Dist: 0}}, oldPortals, math.Inf(1))
		for j, pos := range oldPos {
			d0[pos] = ds[j]
		}
	}
	k := o.appendPortal(v)
	// Closure row: route from v through any old portal i into the closed
	// matrix. Existing pairs cannot improve through v — v has no new
	// incident edges yet, so any detour through it is a pure-G0 segment
	// already dominated by the clique distances (triangle inequality).
	row := o.patch[k]
	for j := 0; j < k; j++ {
		best := math.Inf(1)
		for _, pos := range oldPos {
			if d := d0[pos] + o.patch[pos][j]; d < best {
				best = d
			}
		}
		row[j] = best
		o.patch[j][k] = best
	}
}

// addNewPortal registers a brand-new vertex: +Inf row, zero diagonal.
// It is unreachable until an edge touches it.
func (o *overlayOracle) addNewPortal(id VertexID) {
	o.appendPortal(id)
}

// appendPortal grows the matrix by one row/column (initialised to +Inf
// off-diagonal, 0 on the diagonal) and returns the new index.
func (o *overlayOracle) appendPortal(v VertexID) int {
	k := len(o.portals)
	o.portals = append(o.portals, v)
	o.idx[v] = k
	for i := range o.patch {
		o.patch[i] = append(o.patch[i], math.Inf(1))
	}
	row := make([]float64, k+1)
	for i := range row {
		row[i] = math.Inf(1)
	}
	row[k] = 0
	o.patch = append(o.patch, row)
	return k
}

// splitSeeds partitions sources into base-graph seeds and portal entry
// distances (seeds sitting on new vertices enter the patch directly).
func (o *overlayOracle) splitSeeds(sources []Seed) (oldSeeds []Seed, entry []float64) {
	entry = make([]float64, len(o.portals))
	for i := range entry {
		entry[i] = math.Inf(1)
	}
	oldSeeds = make([]Seed, 0, len(sources))
	for _, s := range sources {
		if int(s.Vertex) < o.baseN {
			oldSeeds = append(oldSeeds, s)
		} else if d := s.Dist; d < entry[o.idx[s.Vertex]] {
			entry[o.idx[s.Vertex]] = d
		}
	}
	return oldSeeds, entry
}

// arrive folds entry distances through the patch closure: the cheapest
// way to stand at each portal, having started from any seed. The zero
// diagonal makes a portal its own entry point.
func (o *overlayOracle) arrive(entry []float64) []float64 {
	arr := make([]float64, len(o.portals))
	copy(arr, entry)
	for i, e := range entry {
		if math.IsInf(e, 1) {
			continue
		}
		for q, d := range o.patch[i] {
			if t := e + d; t < arr[q] {
				arr[q] = t
			}
		}
	}
	return arr
}

// SeedDistances implements DistanceOracle over the mutated graph.
func (o *overlayOracle) SeedDistances(sources []Seed, targets []VertexID, bound float64) []float64 {
	return o.seedDistances(sources, targets, bound, nil)
}

// SeedDistancesCk implements CheckedOracle; ck is never nil on this path.
func (o *overlayOracle) SeedDistancesCk(sources []Seed, targets []VertexID, bound float64, ck *Checkpoint) []float64 {
	return o.seedDistances(sources, targets, bound, ck)
}

func (o *overlayOracle) seedDistances(sources []Seed, targets []VertexID, bound float64, ck *Checkpoint) []float64 {
	o.queries.Add(1)
	out := make([]float64, len(targets))
	oldSeeds, entry := o.splitSeeds(sources)

	// Old portal positions, queried alongside the caller's targets in the
	// same bounded base call: an entry distance beyond the bound cannot
	// start a within-bound composed path (weights are non-negative), so
	// the shared bound loses nothing and stays exact at equality.
	oldTargets := make([]VertexID, 0, len(targets))
	oldOut := make([]int, 0, len(targets))
	for i, t := range targets {
		if int(t) < o.baseN {
			oldTargets = append(oldTargets, t)
			oldOut = append(oldOut, i)
		}
	}
	oldPortals := make([]VertexID, 0, len(o.portals))
	oldPos := make([]int, 0, len(o.portals))
	for i, p := range o.portals {
		if int(p) < o.baseN {
			oldPortals = append(oldPortals, p)
			oldPos = append(oldPos, i)
		}
	}

	direct := make([]float64, len(oldTargets))
	for i := range direct {
		direct[i] = math.Inf(1)
	}
	if len(oldSeeds) > 0 && len(oldTargets)+len(oldPortals) > 0 {
		baseTargets := make([]VertexID, 0, len(oldTargets)+len(oldPortals))
		baseTargets = append(baseTargets, oldTargets...)
		baseTargets = append(baseTargets, oldPortals...)
		d := o.baseSeedDistances(oldSeeds, baseTargets, bound, ck)
		if ck.Stopped() {
			return out
		}
		copy(direct, d[:len(oldTargets)])
		for j, pos := range oldPos {
			if v := d[len(oldTargets)+j]; v < entry[pos] {
				entry[pos] = v
			}
		}
	}
	if ck.Spend(len(o.portals)) {
		return out
	}
	arr := o.arrive(entry)

	// Exit sweep: re-enter G0 from every reachable old portal.
	seeds2 := make([]Seed, 0, len(oldPortals))
	for j, pos := range oldPos {
		if a := arr[pos]; a <= bound && !math.IsInf(a, 1) {
			seeds2 = append(seeds2, Seed{Vertex: oldPortals[j], Dist: a})
		}
	}
	var exit []float64
	if len(seeds2) > 0 && len(oldTargets) > 0 {
		exit = o.baseSeedDistances(seeds2, oldTargets, bound, ck)
		if ck.Stopped() {
			return out
		}
	}

	for i := range out {
		out[i] = math.Inf(1)
	}
	for j, i := range oldOut {
		d := direct[j]
		if exit != nil && exit[j] < d {
			d = exit[j]
		}
		out[i] = d
	}
	for i, t := range targets {
		if int(t) >= o.baseN {
			if d := arr[o.idx[t]]; d <= bound {
				out[i] = d
			}
		}
	}
	return out
}

// OneToAll implements DistanceOracle: exact distances from the seeds to
// every vertex of the mutated graph (length baseN+newVerts, matching the
// graph's current vertex count — DijkstraMultiCk returns it unchanged).
func (o *overlayOracle) OneToAll(sources []Seed) []float64 {
	return o.oneToAll(sources, nil)
}

// OneToAllCk implements CheckedOracle; ck is never nil on this path.
func (o *overlayOracle) OneToAllCk(sources []Seed, ck *Checkpoint) []float64 {
	return o.oneToAll(sources, ck)
}

func (o *overlayOracle) oneToAll(sources []Seed, ck *Checkpoint) []float64 {
	o.queries.Add(1)
	n := o.baseN + o.newVerts
	oldSeeds, entry := o.splitSeeds(sources)

	var baseRes []float64
	if len(oldSeeds) > 0 {
		baseRes = o.baseOneToAll(oldSeeds, ck)
		if ck.Stopped() {
			return make([]float64, n)
		}
		for i, p := range o.portals {
			if int(p) < o.baseN && baseRes[p] < entry[i] {
				entry[i] = baseRes[p]
			}
		}
	}
	if ck.Spend(len(o.portals)) {
		return make([]float64, n)
	}
	arr := o.arrive(entry)

	// Exit sweep — only from old portals the patch actually improved;
	// when none improved the second sweep cannot beat the first anywhere.
	seeds2 := make([]Seed, 0, len(o.portals))
	for i, p := range o.portals {
		if int(p) >= o.baseN || math.IsInf(arr[i], 1) {
			continue
		}
		if baseRes == nil || arr[i] < baseRes[p] {
			seeds2 = append(seeds2, Seed{Vertex: p, Dist: arr[i]})
		}
	}

	var res []float64
	switch {
	case len(seeds2) == 0 && baseRes != nil:
		res = baseRes
	case len(seeds2) == 0:
		res = make([]float64, o.baseN)
		for i := range res {
			res[i] = math.Inf(1)
		}
	default:
		res = o.baseOneToAll(seeds2, ck)
		if ck.Stopped() {
			return make([]float64, n)
		}
		if baseRes != nil {
			for i, d := range baseRes {
				if d < res[i] {
					res[i] = d
				}
			}
		}
	}

	out := make([]float64, n)
	copy(out, res)
	for i := o.baseN; i < n; i++ {
		out[i] = arr[o.idx[VertexID(i)]]
	}
	return out
}

// baseSeedDistances threads the checkpoint through when the base oracle
// supports it; a plain call otherwise (the checkpoint still gates the
// overlay's own composition steps).
func (o *overlayOracle) baseSeedDistances(sources []Seed, targets []VertexID, bound float64, ck *Checkpoint) []float64 {
	if co, ok := o.base.(CheckedOracle); ok && ck != nil {
		return co.SeedDistancesCk(sources, targets, bound, ck)
	}
	return o.base.SeedDistances(sources, targets, bound)
}

func (o *overlayOracle) baseOneToAll(sources []Seed, ck *Checkpoint) []float64 {
	if co, ok := o.base.(CheckedOracle); ok && ck != nil {
		return co.OneToAllCk(sources, ck)
	}
	return o.base.OneToAll(sources)
}

// MemoryBytes forwards the base oracle's accounting plus the patch
// matrix, so MemoryStats keeps reporting oracle residency after churn.
func (o *overlayOracle) MemoryBytes() int64 {
	var b int64
	if m, ok := o.base.(interface{ MemoryBytes() int64 }); ok {
		b = m.MemoryBytes()
	}
	k := int64(len(o.portals))
	return b + k*k*8 + k*12
}

// OverlayStats is the observable state of a graph's delta-overlay,
// surfaced through DB.RoadOverlayStats and the serve /statsz endpoint.
// Portals² bounds the patch matrix; a growing portal count is the signal
// to schedule a background re-contraction (Compact).
type OverlayStats struct {
	Active   bool  // a delta-overlay is composing answers
	BaseN    int   // vertices the underlying static oracle covers
	NewVerts int   // vertices appended since it was built
	NewEdges int   // edges appended since it was built
	Portals  int   // patch-matrix dimension
	Queries  int64 // composed distance calls served
}

// OverlayStats reports the state of the graph's delta-overlay, or a zero
// value when the attached oracle (if any) is static.
func (g *Graph) OverlayStats() OverlayStats {
	ov, ok := g.oracle.(*overlayOracle)
	if !ok {
		return OverlayStats{}
	}
	return OverlayStats{
		Active:   true,
		BaseN:    ov.baseN,
		NewVerts: ov.newVerts,
		NewEdges: ov.newEdges,
		Portals:  len(ov.portals),
		Queries:  ov.queries.Load(),
	}
}

// ensureOverlay wraps the attached static oracle in a delta-overlay the
// first time the graph mutates, so it stays attached and exact instead
// of being detached. Returns nil when no oracle is attached (plain
// Dijkstra over the mutated adjacency is already exact). Must be called
// BEFORE the mutation is applied: baseN captures the pre-mutation size.
func (g *Graph) ensureOverlay() *overlayOracle {
	if ov, ok := g.oracle.(*overlayOracle); ok {
		return ov
	}
	if g.oracle == nil {
		return nil
	}
	ov := newOverlay(g.oracle, len(g.pts))
	g.oracle = ov
	return ov
}
