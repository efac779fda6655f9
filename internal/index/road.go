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
	// kwPOIs is the number of dataset POIs the rows account for: the
	// build's, then each one AddPOI widened the rows for, in id order.
	kwPOIs int
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
	ix.kwPOIs = n
	for i := range ix.kwDist {
		ix.kwDist[i] = float32(math.Inf(1))
	}
	var atts []roadnet.Attach
	for i := range ds.POIs {
		p := &ds.POIs[i]
		ix.poiDist[i] = ix.Pivots.AttachDistAll(ds.Road, p.At)
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

// KeywordPOIs returns how many of the dataset's POIs the keyword rows
// account for. While it is below the dataset's POI count, a POI appended
// without AddPOI may sit in a ball the rows know nothing of.
func (ix *RoadIndex) KeywordPOIs() int { return ix.kwPOIs }

// AddPOI widens the keyword rows for POI id, appended to the dataset after
// the build, so the rows keep covering every road ball it can join: for
// each indexed POI o within Euclidean RMax of it, and each of its
// keywords f, row o's entry f is lowered to the Euclidean distance between
// the two. Road distance dominates Euclidean (edge weights are Euclidean
// lengths), and a ball admits an appended POI only within that Euclidean
// distance, so every row stays a superset; the node minima are lowered
// with the rows they cover. The caller appends POIs in id order under the
// same exclusive lock that keeps queries out; an id out of that order
// widens nothing, and KeywordPOIs then stays behind the dataset for good.
func (ix *RoadIndex) AddPOI(id model.POIID) {
	if int(id) != ix.kwPOIs {
		return
	}
	ix.kwPOIs++
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
