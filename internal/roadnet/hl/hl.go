// Package hl implements an exact hub-labeling distance oracle extracted
// from a contraction hierarchy (Abraham et al., "A Hub-Based Labeling
// Algorithm for Shortest Paths in Road Networks" — the CHHL construction).
//
// Every vertex gets a label: a short sorted list of (hub, distance) pairs.
// The defining property (a 2-hop cover) is that for any pair (s, t) the
// labels of s and t share the apex of a shortest s-t path, with exact
// distances on both sides. A distance query is therefore a linear merge of
// two sorted arrays — min over common hubs h of d_s(h) + d_t(h) — with no
// priority queue, no scratch graph, and no per-query search state at all.
//
// Construction processes vertices in descending contraction rank. The
// label of v is seeded with (v, 0) and the min-merge of every up-neighbour
// w's finished label shifted by the arc weight w(v, w); the CH up-down path
// property guarantees this candidate set contains the apex of every
// shortest path leaving v with its exact distance. Candidates are then
// pruned with the bootstrap rule: entry (h, d) is dropped when a hub-label
// query between the candidate label and the finished label of h certifies
// a distance strictly below d. Pruned entries are provably non-optimal
// (the certified distance lower-bounds nothing — it IS a path length — so
// q < d implies d > dist(v, h)), and exact apex entries can never be
// pruned (q >= dist(v, h) = d), which keeps the cover property intact.
// docs/ALGORITHMS.md spells out the full argument.
//
// # Memory layout (rank space)
//
// The store renumbers vertices into rank space: vertex v becomes the rank
// position p = n-1-rank(v), so the highest-ranked vertex is 0. Hubs inside
// labels are stored as rank positions, and the label CSR itself is laid
// out in rank-position order. Two properties follow:
//
//   - Hub ids inside a label are ≤ the owner's position, with the owner's
//     own self-entry exactly at the end. Globally important hubs (small
//     ids, shared by almost every label) cluster at label fronts, so the
//     two-pointer merge finds its common hubs early and label prefixes
//     stay hot in cache across queries.
//   - Construction runs in CSR order. Vertex p's candidates are built from
//     already-finished labels at positions < p, read straight back out of
//     the growing CSR — there is no per-vertex [][]entry intermediate, so
//     peak construction memory is the final store plus one candidate
//     buffer. That is what lets a ~10⁸-entry store at a million vertices
//     build without doubling its footprint.
//
// Offsets are int64: 1M vertices × ~100-entry labels is within a factor of
// 20 of an int32 offset overflow, and the codec guards the conversion
// explicitly instead of truncating (see codec.go).
//
// The oracle keeps nothing of the CH it was extracted from: the labels and
// the position map answer every pair, and the snapshot section carries
// both (codec.go).
package hl

import (
	"math"
	"slices"
	"sort"
	"sync"

	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
)

// Oracle is an immutable hub labeling over a road-network snapshot. Build
// once, then query concurrently; queries allocate nothing beyond the
// pooled merge buffers.
type Oracle struct {
	n int

	// Labels in CSR form, laid out and numbered in rank space: the label
	// of the vertex at rank position p occupies [off[p], off[p+1]) in
	// hub/dist, sorted by ascending rank-space hub id (so its self-entry,
	// id p, is last). pos maps a graph vertex id to its rank position.
	pos  []int32
	off  []int64
	hub  []int32
	dist []float64

	maxLabel int
	pool     sync.Pool // *scratch
}

// Build contracts g and extracts hub labels from the hierarchy.
func Build(g *roadnet.Graph) *Oracle { return FromCH(ch.Build(g)) }

// FromCH extracts hub labels from an already-built contraction hierarchy,
// reading its rank order and up-arcs and keeping no reference to it.
// Construction streams: vertices are processed in rank-position order and
// their pruned labels appended directly to the CSR, which the pruning
// lookups of later vertices then read back — no per-vertex slice table.
func FromCH(c *ch.Oracle) *Oracle {
	n := c.NumVertices()
	o := &Oracle{n: n}
	byRank := c.VerticesByRankDesc()
	o.pos = make([]int32, n)
	for p, v := range byRank {
		o.pos[v] = int32(p)
	}
	o.off = make([]int64, n+1)
	o.hub = make([]int32, 0, 8*n)
	o.dist = make([]float64, 0, 8*n)
	var cand []labEntry
	for p, v := range byRank {
		cand = cand[:0]
		to, w := c.UpArcs(v)
		for k := range to {
			hH, hD := o.labelAt(o.pos[to[k]])
			for i, h := range hH {
				cand = append(cand, labEntry{hub: h, d: hD[i] + w[k]})
			}
		}
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].hub != cand[j].hub {
				return cand[i].hub < cand[j].hub
			}
			return cand[i].d < cand[j].d
		})
		// Collapse duplicate hubs to their minimum distance (in place; the
		// sort put the minimum first in each run), then append the
		// self-entry: every candidate hub comes from a finished label at a
		// position < p, so id p is strictly the largest and lands last.
		dedup := cand[:0]
		for _, e := range cand {
			if len(dedup) > 0 && dedup[len(dedup)-1].hub == e.hub {
				continue
			}
			dedup = append(dedup, e)
		}
		dedup = append(dedup, labEntry{hub: int32(p), d: 0})
		// Bootstrap pruning: drop entries a finished higher label already
		// certifies a strictly shorter path for, appending survivors
		// straight onto the CSR.
		for _, e := range dedup {
			if e.hub != int32(p) {
				hH, hD := o.labelAt(e.hub)
				if prunable(dedup, hH, hD, e.d) {
					continue
				}
			}
			o.hub = append(o.hub, e.hub)
			o.dist = append(o.dist, e.d)
		}
		o.off[p+1] = int64(len(o.hub))
		if size := int(o.off[p+1] - o.off[p]); size > o.maxLabel {
			o.maxLabel = size
		}
		cand = dedup
	}
	return o
}

type labEntry struct {
	hub int32
	d   float64
}

// prunable reports whether the (sorted) candidate label and the finished
// label of a hub certify a distance strictly below d. It early-exits on
// the first witness, which is what keeps construction near-linear in the
// label sizes in practice.
func prunable(cand []labEntry, hH []int32, hD []float64, d float64) bool {
	i, j := 0, 0
	for i < len(cand) && j < len(hH) {
		switch {
		case cand[i].hub < hH[j]:
			i++
		case cand[i].hub > hH[j]:
			j++
		default:
			if cand[i].d+hD[j] < d {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// NumVertices reports the size of the covered graph snapshot.
func (o *Oracle) NumVertices() int { return o.n }

// NumLabelEntries reports the total (hub, dist) pair count across labels.
func (o *Oracle) NumLabelEntries() int { return len(o.hub) }

// AvgLabelSize reports the mean label length.
func (o *Oracle) AvgLabelSize() float64 {
	if o.n == 0 {
		return 0
	}
	return float64(len(o.hub)) / float64(o.n)
}

// MaxLabelSize reports the longest label.
func (o *Oracle) MaxLabelSize() int { return o.maxLabel }

// MemoryBytes reports the resident size of the label store (offsets,
// position map, hubs, distances) for capacity telemetry.
func (o *Oracle) MemoryBytes() int64 {
	return int64(len(o.off))*8 + int64(len(o.pos))*4 + int64(len(o.hub))*4 + int64(len(o.dist))*8
}

// label returns vertex v's entries as read-only subslices.
func (o *Oracle) label(v int32) (hubs []int32, dist []float64) {
	return o.labelAt(o.pos[v])
}

// labelAt returns the entries of the vertex at rank position p.
func (o *Oracle) labelAt(p int32) (hubs []int32, dist []float64) {
	lo, hi := o.off[p], o.off[p+1]
	return o.hub[lo:hi], o.dist[lo:hi]
}

// scratch holds the pooled per-query merge buffers.
type scratch struct {
	src roadnet.HubLabel
	tmp roadnet.HubLabel
	ord []int64 // (rank position << 32 | target index) sort keys
}

func (o *Oracle) getScratch() *scratch {
	sc, _ := o.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	return sc
}

func (o *Oracle) putScratch(sc *scratch) {
	sc.src.Reset()
	sc.tmp.Reset()
	o.pool.Put(sc)
}

// SeedLabel implements roadnet.LabelOracle: the merged label of the seed
// set, built by repeated two-pointer min-merges of the seeds' vertex
// labels shifted by their initial distances.
func (o *Oracle) SeedLabel(seeds []roadnet.Seed, dst *roadnet.HubLabel) {
	dst.Reset()
	sc := o.getScratch()
	o.seedLabelInto(seeds, dst, &sc.tmp)
	o.putScratch(sc)
}

// seedLabelInto merges the seeds' labels into dst using tmp as the swap
// buffer. dst must be empty.
func (o *Oracle) seedLabelInto(seeds []roadnet.Seed, dst, tmp *roadnet.HubLabel) {
	for _, s := range seeds {
		hubs, dist := o.label(int32(s.Vertex))
		if len(dst.Hubs) == 0 {
			for i, h := range hubs {
				dst.Hubs = append(dst.Hubs, h)
				dst.Dist = append(dst.Dist, dist[i]+s.Dist)
			}
			continue
		}
		tmp.Reset()
		i, j := 0, 0
		for i < len(dst.Hubs) || j < len(hubs) {
			switch {
			case j == len(hubs) || (i < len(dst.Hubs) && dst.Hubs[i] < hubs[j]):
				tmp.Hubs = append(tmp.Hubs, dst.Hubs[i])
				tmp.Dist = append(tmp.Dist, dst.Dist[i])
				i++
			case i == len(dst.Hubs) || hubs[j] < dst.Hubs[i]:
				tmp.Hubs = append(tmp.Hubs, hubs[j])
				tmp.Dist = append(tmp.Dist, dist[j]+s.Dist)
				j++
			default:
				d := dist[j] + s.Dist
				if dst.Dist[i] < d {
					d = dst.Dist[i]
				}
				tmp.Hubs = append(tmp.Hubs, dst.Hubs[i])
				tmp.Dist = append(tmp.Dist, d)
				i++
				j++
			}
		}
		*dst, *tmp = *tmp, *dst
	}
}

// mergeDist is the hub-label distance query: min over common hubs of the
// two labels' distance sums, +Inf when the labels share no hub (the pair
// is disconnected). The iteration is structured around the hub arrays
// alone — four-byte ids, sixteen per cache line — touching the distance
// arrays only on an id match, with the mismatch branches first because
// matches are the rare case in a two-pointer label merge.
func mergeDist(aH []int32, aD []float64, bH []int32, bD []float64) float64 {
	best := math.Inf(1)
	i, j := 0, 0
	for i < len(aH) && j < len(bH) {
		switch {
		case aH[i] < bH[j]:
			i++
		case aH[i] > bH[j]:
			j++
		default:
			// min() compiles branchless (MINSD): in rank space common hubs
			// arrive most-important-first, so the running minimum improves
			// on most matches and a conditional update would mispredict.
			best = min(best, aD[i]+bD[j])
			i++
			j++
		}
	}
	return best
}

// SeedDistances implements roadnet.DistanceOracle: one merged source label,
// then one two-pointer merge per target. Distances beyond bound are
// reported as +Inf; distances exactly at the bound stay exact.
func (o *Oracle) SeedDistances(sources []roadnet.Seed, targets []roadnet.VertexID, bound float64) []float64 {
	return o.seedDistances(sources, targets, bound, nil)
}

// SeedDistancesCk implements roadnet.CheckedOracle: merged label entries
// are charged to ck in batches and the per-target merge loop stops once it
// trips, at which point the result is unspecified and the caller must
// discard it (ck.Stopped()).
func (o *Oracle) SeedDistancesCk(sources []roadnet.Seed, targets []roadnet.VertexID, bound float64, ck *roadnet.Checkpoint) []float64 {
	return o.seedDistances(sources, targets, bound, ck)
}

// blockTargets is the batch size past which seedDistances re-orders its
// target visits by rank position: the CSR is laid out in rank order, so a
// rank-ordered walk reads the label store sequentially, and duplicate
// target vertices (attachment endpoints repeat heavily) become adjacent
// and merge once. Below it the permutation costs more than it saves.
const blockTargets = 8

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
	o.seedLabelInto(sources, &sc.src, &sc.tmp)
	srcH, srcD := sc.src.Hubs, sc.src.Dist

	// Visit targets in rank-position order when the batch is large enough
	// to pay for the permutation: the label CSR is contiguous in that
	// order, and equal positions (duplicate vertices) land adjacent so the
	// merge runs once per distinct vertex. Work is still charged per
	// target — exactly what the unordered loop would spend — so budget
	// accounting is independent of the visit order.
	ordered := len(targets) >= blockTargets
	if ordered {
		if cap(sc.ord) < len(targets) {
			sc.ord = make([]int64, len(targets))
		}
		sc.ord = sc.ord[:len(targets)]
		for i, t := range targets {
			sc.ord[i] = int64(o.pos[t])<<32 | int64(uint32(i))
		}
		slices.Sort(sc.ord)
	}
	spent := 0
	prevPos := int32(-1)
	prevD := inf
	for k := range targets {
		i := k
		var tH []int32
		var tD []float64
		var p int32
		if ordered {
			key := sc.ord[k]
			p = int32(key >> 32)
			i = int(uint32(key))
			tH, tD = o.labelAt(p)
		} else {
			p = o.pos[targets[k]]
			tH, tD = o.labelAt(p)
		}
		if ck != nil {
			if spent += len(tH) + len(srcH); spent >= 1024 {
				if ck.Spend(spent) {
					break
				}
				spent = 0
			}
		}
		if ordered && p == prevPos {
			if prevD <= bound {
				res[i] = prevD
			}
			continue
		}
		d := mergeDist(srcH, srcD, tH, tD)
		prevPos, prevD = p, d
		if d <= bound {
			res[i] = d
		}
	}
	ck.Spend(spent)
	o.putScratch(sc)
	return res
}

var (
	_ roadnet.LabelOracle   = (*Oracle)(nil)
	_ roadnet.CheckedOracle = (*Oracle)(nil)
)
