package ch

import (
	"math"

	"gpssn/internal/roadnet"
)

// scratch holds all per-query state: epoch-stamped label arrays for the
// forward and backward upward searches, the shared heap, the per-vertex
// bucket lists of the many-to-many kernel, and the target-slot map.
// Epoch stamping makes reuse O(touched) instead of O(n): a label is valid
// only when its stamp equals the current epoch, so "resetting" an array is
// a single counter increment.
type scratch struct {
	dist  []float64 // forward search labels
	ver   []uint32
	epoch uint32

	bDist  []float64 // backward (per-target) search labels
	bVer   []uint32
	bEpoch uint32

	heap heap64

	bktHead  []int32 // per-vertex head index into entries, or -1
	bktVer   []uint32
	bktEpoch uint32
	entries  []bktEntry

	slotOf    []int32 // target vertex -> slot in slots
	slotVer   []uint32
	slotEpoch uint32
	slots     []int32
	best      []float64 // per-slot minimum meeting distance
}

// bktEntry is one (target-slot, distance) record attached to a vertex
// settled by a backward upward search; next chains entries on the same
// vertex.
type bktEntry struct {
	next int32
	slot int32
	d    float64
}

func (o *Oracle) getScratch() *scratch {
	sc, _ := o.pool.Get().(*scratch)
	if sc == nil || len(sc.dist) < o.n {
		sc = &scratch{
			dist:    make([]float64, o.n),
			ver:     make([]uint32, o.n),
			bDist:   make([]float64, o.n),
			bVer:    make([]uint32, o.n),
			bktHead: make([]int32, o.n),
			bktVer:  make([]uint32, o.n),
			slotOf:  make([]int32, o.n),
			slotVer: make([]uint32, o.n),
		}
	}
	return sc
}

func (o *Oracle) putScratch(sc *scratch) {
	sc.heap.reset()
	sc.entries = sc.entries[:0]
	sc.slots = sc.slots[:0]
	o.pool.Put(sc)
}

// bump advances an epoch counter, clearing its stamp array on the (rare)
// uint32 wrap so stale stamps can never collide with a fresh epoch.
func bump(epoch *uint32, ver []uint32) uint32 {
	*epoch++
	if *epoch == 0 {
		for i := range ver {
			ver[i] = 0
		}
		*epoch = 1
	}
	return *epoch
}

// upwardSearch runs a stall-on-demand Dijkstra over the up-edges from the
// given seeds, invoking onSettle for every settled, non-stalled vertex.
// Labels beyond bound are never pushed: any up-path prefix of a shortest
// path within the bound stays within the bound (weights are non-negative),
// so pruning is exact. Stalling skips a vertex whose popped label is
// provably not a shortest-path distance (a higher-ranked neighbour offers a
// shorter way down to it); the apex of an optimal up-down path always
// carries its exact distance and therefore is never stalled, which keeps
// bucket recording and scanning at settled vertices sound.
// ck may be nil; a checked search charges the checkpoint per settled batch
// and aborts once it trips — callers must then discard the whole result
// (the roadnet.Graph wrappers substitute +Inf).
func (o *Oracle) upwardSearch(sc *scratch, dist []float64, ver []uint32, epoch *uint32, seeds []roadnet.Seed, bound float64, ck *roadnet.Checkpoint, onSettle func(v int32, d float64)) {
	ep := bump(epoch, ver)
	h := &sc.heap
	h.reset()
	for _, s := range seeds {
		v := int32(s.Vertex)
		if s.Dist <= bound && (ver[v] != ep || s.Dist < dist[v]) {
			ver[v] = ep
			dist[v] = s.Dist
			h.push(v, s.Dist)
		}
	}
	sinceCheck := 0
	for h.len() > 0 {
		v, d := h.pop()
		if d > dist[v] {
			continue // stale entry
		}
		if ck != nil {
			if sinceCheck++; sinceCheck >= ckStride {
				if ck.Spend(sinceCheck) {
					return
				}
				sinceCheck = 0
			}
		}
		stalled := false
		for i := o.up.off[v]; i < o.up.off[v+1]; i++ {
			w := o.up.to[i]
			if ver[w] == ep && dist[w]+o.up.w[i] < d {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		onSettle(v, d)
		for i := o.up.off[v]; i < o.up.off[v+1]; i++ {
			w := o.up.to[i]
			nd := d + o.up.w[i]
			if nd <= bound && (ver[w] != ep || nd < dist[w]) {
				ver[w] = ep
				dist[w] = nd
				h.push(w, nd)
			}
		}
	}
	ck.Spend(sinceCheck)
}

// ckStride is the settled-vertex batch size between checkpoint charges in
// the upward searches and the PHAST sweep.
const ckStride = 256

// SeedDistances implements roadnet.DistanceOracle with the bucket-based
// many-to-many kernel (Knopp et al., "Computing Many-to-Many Shortest Paths
// Using Highway Hierarchies"): one backward upward search per distinct
// target vertex records (slot, distance) buckets at the vertices it
// settles; a single forward upward search from the seeds then scans the
// buckets at its own settled vertices, and the meeting minimum
// d_fwd(m) + d_bwd(m) over all m is the exact distance.
func (o *Oracle) SeedDistances(sources []roadnet.Seed, targets []roadnet.VertexID, bound float64) []float64 {
	return o.seedDistances(sources, targets, bound, nil)
}

// SeedDistancesCk implements roadnet.CheckedOracle: the backward and
// forward upward searches charge settled vertices to ck and abort once it
// trips, at which point the result is unspecified and the caller must
// discard it (ck.Stopped()).
func (o *Oracle) SeedDistancesCk(sources []roadnet.Seed, targets []roadnet.VertexID, bound float64, ck *roadnet.Checkpoint) []float64 {
	return o.seedDistances(sources, targets, bound, ck)
}

func (o *Oracle) seedDistances(sources []roadnet.Seed, targets []roadnet.VertexID, bound float64, ck *roadnet.Checkpoint) []float64 {
	inf := math.Inf(1)
	res := make([]float64, len(targets))
	for i := range res {
		res[i] = inf
	}
	if o.n == 0 || len(targets) == 0 || len(sources) == 0 {
		return res
	}
	sc := o.getScratch()
	defer o.putScratch(sc)

	// Deduplicate target vertices into slots: attachment endpoints repeat
	// heavily (every candidate on the same edge shares both endpoints).
	sep := bump(&sc.slotEpoch, sc.slotVer)
	sc.slots = sc.slots[:0]
	for _, t := range targets {
		v := int32(t)
		if sc.slotVer[v] != sep {
			sc.slotVer[v] = sep
			sc.slotOf[v] = int32(len(sc.slots))
			sc.slots = append(sc.slots, v)
		}
	}
	if cap(sc.best) < len(sc.slots) {
		sc.best = make([]float64, len(sc.slots))
	}
	sc.best = sc.best[:len(sc.slots)]
	for i := range sc.best {
		sc.best[i] = inf
	}

	// Backward phase: bucket entries from each distinct target vertex.
	bep := bump(&sc.bktEpoch, sc.bktVer)
	sc.entries = sc.entries[:0]
	seed := make([]roadnet.Seed, 1)
	for si, t := range sc.slots {
		if ck.Stopped() {
			return res
		}
		seed[0] = roadnet.Seed{Vertex: roadnet.VertexID(t)}
		slot := int32(si)
		o.upwardSearch(sc, sc.bDist, sc.bVer, &sc.bEpoch, seed, bound, ck, func(v int32, d float64) {
			head := int32(-1)
			if sc.bktVer[v] == bep {
				head = sc.bktHead[v]
			}
			sc.entries = append(sc.entries, bktEntry{next: head, slot: slot, d: d})
			sc.bktVer[v] = bep
			sc.bktHead[v] = int32(len(sc.entries) - 1)
		})
	}

	// Forward phase: scan buckets at every settled vertex.
	o.upwardSearch(sc, sc.dist, sc.ver, &sc.epoch, sources, bound, ck, func(v int32, d float64) {
		if sc.bktVer[v] != bep {
			return
		}
		for ei := sc.bktHead[v]; ei >= 0; ei = sc.entries[ei].next {
			e := sc.entries[ei]
			if cand := d + e.d; cand < sc.best[e.slot] {
				sc.best[e.slot] = cand
			}
		}
	})

	for i, t := range targets {
		if d := sc.best[sc.slotOf[int32(t)]]; d <= bound {
			res[i] = d
		}
	}
	return res
}

// OneToAll implements roadnet.DistanceOracle with a PHAST-style sweep
// (Delling et al., "PHAST: Hardware-Accelerated Shortest Path Trees"):
// an upward Dijkstra from the seeds writes labels straight into the result
// array, then one linear pass over the vertices in descending rank relaxes
// each vertex's down-edges. Stalled labels may be non-optimal, but the
// sweep repairs every vertex via its shortest path's apex, whose label is
// always exact.
func (o *Oracle) OneToAll(sources []roadnet.Seed) []float64 {
	return o.oneToAll(sources, nil)
}

// OneToAllCk implements roadnet.CheckedOracle: both the upward search and
// the downward sweep charge processed vertices to ck and abort once it
// trips, at which point the result is unspecified and the caller must
// discard it (ck.Stopped()).
func (o *Oracle) OneToAllCk(sources []roadnet.Seed, ck *roadnet.Checkpoint) []float64 {
	return o.oneToAll(sources, ck)
}

func (o *Oracle) oneToAll(sources []roadnet.Seed, ck *roadnet.Checkpoint) []float64 {
	inf := math.Inf(1)
	res := make([]float64, o.n)
	for i := range res {
		res[i] = inf
	}
	if o.n == 0 || len(sources) == 0 {
		return res
	}
	sc := o.getScratch()
	h := &sc.heap
	h.reset()
	for _, s := range sources {
		v := int32(s.Vertex)
		if s.Dist < res[v] {
			res[v] = s.Dist
			h.push(v, s.Dist)
		}
	}
	sinceCheck := 0
	for h.len() > 0 {
		v, d := h.pop()
		if d > res[v] {
			continue
		}
		if ck != nil {
			if sinceCheck++; sinceCheck >= ckStride {
				if ck.Spend(sinceCheck) {
					o.putScratch(sc)
					return res
				}
				sinceCheck = 0
			}
		}
		stalled := false
		for i := o.up.off[v]; i < o.up.off[v+1]; i++ {
			if res[o.up.to[i]]+o.up.w[i] < d {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		for i := o.up.off[v]; i < o.up.off[v+1]; i++ {
			w := o.up.to[i]
			if nd := d + o.up.w[i]; nd < res[w] {
				res[w] = nd
				h.push(w, nd)
			}
		}
	}
	ck.Spend(sinceCheck)
	o.putScratch(sc)
	if ck.Stopped() {
		return res
	}

	// Downward sweep in descending rank: when v is processed every
	// down-edge into it (necessarily from a higher-ranked vertex) has
	// already been relaxed, so res[v] is final.
	sinceCheck = 0
	for _, v := range o.byRankDesc {
		if ck != nil {
			if sinceCheck++; sinceCheck >= ckStride {
				if ck.Spend(sinceCheck) {
					return res
				}
				sinceCheck = 0
			}
		}
		d := res[v]
		if math.IsInf(d, 1) {
			continue
		}
		for i := o.down.off[v]; i < o.down.off[v+1]; i++ {
			w := o.down.to[i]
			if nd := d + o.down.w[i]; nd < res[w] {
				res[w] = nd
			}
		}
	}
	ck.Spend(sinceCheck)
	return res
}

var (
	_ roadnet.DistanceOracle = (*Oracle)(nil)
	_ roadnet.CheckedOracle  = (*Oracle)(nil)
)
