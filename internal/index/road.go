// Package index implements the two GP-SSN indexes of Section 4: I_R, an
// R-tree over POIs augmented with nearest-keyword road distances (the
// keyword sets of every road ball up to r_max) and pivot-distance bounds;
// and I_S, a
// partition tree over the social network whose nodes carry
// interest-vector MBRs and social pivot hop bounds. A node of either
// index stands for one disk page: the query engine counts the nodes a
// query reads as its page I/O (docs/ALGORITHMS.md "I/O accounting").
package index

import (
	"fmt"
	"math"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/rtree"
)

// RoadConfig parameterizes BuildRoad.
type RoadConfig struct {
	// Pivots are the road-network pivot vertices rp_1..rp_h.
	Pivots []roadnet.VertexID
	// RMin and RMax bound the query radius r the index will serve; the
	// keyword distances are kept up to RMax.
	RMin, RMax float64
	// MaxEntries is the R-tree node capacity (default 16).
	MaxEntries int
	// Deprecated: no effect; kept because benchmark/probes.go sets it
	PageSize, PoolPages int
}

func (c RoadConfig) withDefaults() RoadConfig {
	if c.MaxEntries == 0 {
		c.MaxEntries = 16
	}
	return c
}

// RoadNodeMeta carries the Section 4.1 augmentation of one I_R node.
type RoadNodeMeta struct {
	// KwMin[f] is the minimum of KeywordDist(o)[f] over the subtree's
	// POIs o, so {f : KwMin[f] ≤ r} holds the keywords of every member's
	// radius-r road ball (Lemma 6).
	KwMin []float32
	// LbDist and UbDist are the per-pivot distance bounds of Eqs. (7)-(8).
	LbDist, UbDist []float64
	// POICount is the number of POIs under the node (pruning-power
	// accounting in the experiments).
	POICount int
}

// RoadIndex is the I_R index.
type RoadIndex struct {
	DS     *model.Dataset
	Tree   *rtree.Tree
	Pivots *roadnet.PivotTable
	RMin   float64
	RMax   float64

	poiDist [][]float64 // [poi][pivot] dist_RN(o_i, rp_k)
	// kwDist is the dense n×d slab of nearest-keyword road distances, row
	// o at [o·d, (o+1)·d); see KeywordDist.
	kwDist []float32
	meta   map[*rtree.Node]*RoadNodeMeta
}

// BuildRoad constructs I_R over the dataset's POIs.
func BuildRoad(ds *model.Dataset, cfg RoadConfig) (*RoadIndex, error) {
	if len(cfg.Pivots) == 0 {
		return nil, fmt.Errorf("index: road index needs at least one pivot")
	}
	if cfg.RMin <= 0 || cfg.RMax < cfg.RMin {
		return nil, fmt.Errorf("index: need 0 < RMin <= RMax, got [%v, %v]", cfg.RMin, cfg.RMax)
	}
	if len(ds.POIs) == 0 {
		return nil, fmt.Errorf("index: dataset has no POIs")
	}
	c := cfg.withDefaults()

	idx := &RoadIndex{
		DS:   ds,
		RMin: c.RMin,
		RMax: c.RMax,
		meta: map[*rtree.Node]*RoadNodeMeta{},
	}
	idx.Pivots = roadnet.BuildPivotTable(ds.Road, c.Pivots)

	// Bulk-load the R-tree over POI locations.
	idx.Tree = rtree.New(rtree.Options{MaxEntries: c.MaxEntries})
	items := make([]rtree.Item, len(ds.POIs))
	for i := range ds.POIs {
		items[i] = rtree.Item{Rect: geo.RectFromPoint(ds.POIs[i].Loc), ID: int32(i)}
	}
	idx.Tree.BulkLoad(items)

	idx.buildPOIAggregates()
	idx.buildNodeMeta(idx.Tree.Root())
	return idx, nil
}

// buildPOIAggregates computes the per-POI pivot distances and keyword
// distances. Row o of the keyword slab holds, for each topic f, the road
// distance from o to the nearest POI carrying f when it is ≤ RMax (0 for
// o's own keywords), +Inf otherwise: one bounded search per POI over the
// POIs within Euclidean RMax (road distance dominates Euclidean), through
// the same kernel ballAround uses, so the keyword set of o's road ball at
// any radius r ≤ RMax is {f : KeywordDist(o)[f] ≤ r}. Each value is
// rounded to a float32 that is not above it, so the set can only grow.
func (ix *RoadIndex) buildPOIAggregates() {
	ds := ix.DS
	n, d := len(ds.POIs), ds.NumTopics
	ix.poiDist = make([][]float64, n)
	ix.kwDist = make([]float32, n*d)
	for i := range ix.kwDist {
		ix.kwDist[i] = float32(math.Inf(1))
	}
	var atts []roadnet.Attach
	for i := range ds.POIs {
		ix.poiDist[i] = ix.Pivots.AttachDistAll(ds.Road, ds.POIs[i].At)
		atts = ix.lowerKeywordRow(i, atts)
	}
}

// lowerKeywordRow lowers POI i's keyword row to the road distances of the
// POIs within Euclidean RMax of it: one bounded search over them, through
// the same kernel ballAround uses. atts is scratch, returned for reuse.
func (ix *RoadIndex) lowerKeywordRow(i int, atts []roadnet.Attach) []roadnet.Attach {
	ds, d := ix.DS, ix.DS.NumTopics
	p := &ds.POIs[i]
	near := ix.euclidBall(p.Loc, ix.RMax)
	atts = atts[:0]
	for _, j := range near {
		atts = append(atts, ds.POIs[j].At)
	}
	dists := ds.Road.DistAttachWithin(p.At, ix.RMax, atts)
	row := ix.kwDist[i*d : (i+1)*d]
	for c, j := range near {
		dist := dists[c]
		if j == i {
			dist = 0
		}
		lowerRow(row, ds.POIs[j].Keywords, dist)
	}
	return atts
}

// AddRoadEdge brings I_R up to date after the road graph gained edge id,
// and returns the vertices whose distance to some pivot fell (I_S's
// AddRoadEdge takes them). The pivot rows, which I_S shares, run one
// decrease-only search per pivot. A pendant edge (an end with no other
// edge) shortens no path between older points and changes nothing else.
// Otherwise an indexed POI on an edge touching a vertex whose pivot
// distance fell gets its pivot vector recomputed, and the keyword row of
// every indexed POI within Euclidean RMax of either end is lowered by a
// new bounded search: a road path through the edge that is no longer than
// RMax reaches an end first, at least that far in a straight line. The
// node bounds are then recomputed over the rows. Not safe concurrently
// with queries.
func (ix *RoadIndex) AddRoadEdge(id roadnet.EdgeID) []roadnet.VertexID {
	g := ix.DS.Road
	fell := ix.Pivots.AddEdge(g, id)
	e := g.EdgeAt(id)
	if g.Degree(e.U) == 1 || g.Degree(e.V) == 1 {
		return nil
	}
	touched := touching(g, fell)
	for i := range ix.poiDist {
		if at := ix.DS.POIs[i].At; touched(at) {
			ix.poiDist[i] = ix.Pivots.AttachDistAll(g, at)
		}
	}
	var atts []roadnet.Attach
	seen := map[int]bool{}
	for _, end := range [2]roadnet.VertexID{e.U, e.V} {
		for _, i := range ix.euclidBall(g.Vertex(end), ix.RMax*(1+1e-9)) {
			if !seen[i] {
				seen[i] = true
				atts = ix.lowerKeywordRow(i, atts)
			}
		}
	}
	ix.buildNodeMeta(ix.Tree.Root())
	return fell
}

// touching returns whether an attachment lies on an edge with an end
// among vs.
func touching(g *roadnet.Graph, vs []roadnet.VertexID) func(roadnet.Attach) bool {
	set := make(map[roadnet.VertexID]bool, len(vs))
	for _, v := range vs {
		set[v] = true
	}
	return func(a roadnet.Attach) bool {
		e := g.EdgeAt(a.Edge)
		return set[e.U] || set[e.V]
	}
}

// lowerRow lowers row[f] to d, rounded down to a float32, for each keyword
// f. +Inf (beyond the search bound) changes nothing.
func lowerRow(row []float32, keywords []int, d float64) {
	v := float32(d)
	if float64(v) > d {
		v = math.Nextafter32(v, 0)
	}
	for _, f := range keywords {
		row[f] = min(row[f], v)
	}
}

// euclidBall returns the ids of POIs within Euclidean distance radius of p
// (including any POI exactly at p).
func (ix *RoadIndex) euclidBall(p geo.Point, radius float64) []int {
	q := geo.Rect{
		Min: geo.Pt(p.X-radius, p.Y-radius),
		Max: geo.Pt(p.X+radius, p.Y+radius),
	}
	var out []int
	r2 := radius * radius
	ix.Tree.Search(q, func(it rtree.Item) bool {
		if it.Rect.Min.Dist2(p) <= r2 {
			out = append(out, int(it.ID))
		}
		return true
	})
	return out
}

// EuclidBall returns the ids of POIs within Euclidean distance radius of p.
// Because road distance dominates Euclidean distance, the result is a
// superset of any road-network ball of the same radius — the query engine
// uses it as a prefilter before exact bounded-Dijkstra membership tests.
func (ix *RoadIndex) EuclidBall(p geo.Point, radius float64) []model.POIID {
	raw := ix.euclidBall(p, radius)
	out := make([]model.POIID, len(raw))
	for i, id := range raw {
		out[i] = model.POIID(id)
	}
	return out
}

// buildNodeMeta walks the tree bottom-up computing the node augmentation.
func (ix *RoadIndex) buildNodeMeta(n *rtree.Node) *RoadNodeMeta {
	d := ix.DS.NumTopics
	h := ix.Pivots.NumPivots()
	m := &RoadNodeMeta{
		KwMin:  make([]float32, d),
		LbDist: make([]float64, h),
		UbDist: make([]float64, h),
	}
	for f := range m.KwMin {
		m.KwMin[f] = float32(math.Inf(1))
	}
	for k := 0; k < h; k++ {
		m.LbDist[k] = math.Inf(1)
		m.UbDist[k] = math.Inf(-1)
	}
	if n.IsLeaf() {
		for _, e := range n.Entries() {
			id := int(e.ID)
			m.POICount++
			minInto(m.KwMin, ix.KeywordDist(model.POIID(id)))
			for k := 0; k < h; k++ {
				m.LbDist[k] = math.Min(m.LbDist[k], ix.poiDist[id][k])
				m.UbDist[k] = math.Max(m.UbDist[k], ix.poiDist[id][k])
			}
		}
	} else {
		for _, e := range n.Entries() {
			cm := ix.buildNodeMeta(e.Child)
			m.POICount += cm.POICount
			minInto(m.KwMin, cm.KwMin)
			for k := 0; k < h; k++ {
				m.LbDist[k] = math.Min(m.LbDist[k], cm.LbDist[k])
				m.UbDist[k] = math.Max(m.UbDist[k], cm.UbDist[k])
			}
		}
	}
	ix.meta[n] = m
	return m
}

// minInto lowers dst to the element-wise minimum of dst and src.
func minInto(dst, src []float32) {
	for f, v := range src {
		dst[f] = min(dst[f], v)
	}
}

// Meta returns the augmentation of a node. It panics for foreign nodes.
func (ix *RoadIndex) Meta(n *rtree.Node) *RoadNodeMeta {
	m, ok := ix.meta[n]
	if !ok {
		panic("index: node does not belong to this road index")
	}
	return m
}

// POIDist returns the pivot distance vector of a POI (read-only).
func (ix *RoadIndex) POIDist(id model.POIID) []float64 { return ix.poiDist[id] }

// KeywordDist returns indexed POI o's keyword distance row (read-only):
// entry f is at most the road distance from o to the nearest POI carrying
// f, and +Inf only when that distance exceeds RMax. The keywords of o's
// road ball of any radius r ≤ RMax are therefore a subset of
// {f : KeywordDist(o)[f] ≤ r} (Lemma 1), and equal to it up to the
// float32 rounding of the stored values.
func (ix *RoadIndex) KeywordDist(o model.POIID) []float32 {
	d := ix.DS.NumTopics
	return ix.kwDist[int(o)*d : (int(o)+1)*d]
}

// AddPOI widens the keyword rows for POI id, appended to the dataset after
// the build, so the rows keep covering every road ball it can join: for
// each indexed POI o within Euclidean RMax of it, and each of its
// keywords f, row o's entry f is lowered to the Euclidean distance between
// the two. Road distance dominates Euclidean (edge weights are Euclidean
// lengths), and a ball admits an appended POI only within that Euclidean
// distance, so every row stays a superset; the node minima are lowered
// with the rows they cover. The caller appends every POI through here,
// under the same exclusive lock that keeps queries out.
func (ix *RoadIndex) AddPOI(id model.POIID) {
	p := &ix.DS.POIs[id]
	ix.widen(ix.Tree.Root(), p)
}

// widen lowers the rows under n for appended POI p and then n's own
// minima, descending only into children whose MBR is within RMax of p
// (with the slack the query-side radius test allows).
func (ix *RoadIndex) widen(n *rtree.Node, p *model.POI) {
	m := ix.Meta(n)
	for _, e := range n.Entries() {
		if n.IsLeaf() {
			o := model.POIID(e.ID)
			if d := p.Loc.Dist(ix.DS.POIs[o].Loc); d <= ix.RMax {
				row := ix.KeywordDist(o)
				lowerRow(row, p.Keywords, d)
				minInto(m.KwMin, row)
			}
			continue
		}
		if e.Rect.MinDistPoint(p.Loc) <= ix.RMax*(1+1e-9) {
			ix.widen(e.Child, p)
			minInto(m.KwMin, ix.Meta(e.Child).KwMin)
		}
	}
}

// Height returns the number of levels of the underlying tree.
func (ix *RoadIndex) Height() int { return ix.Tree.Height() }
