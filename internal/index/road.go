// Package index implements the two GP-SSN indexes of Section 4: I_R, an
// R*-tree over POIs augmented with keyword supersets (sup_K, with hashed
// bit-vector signatures V_sup) and pivot-distance bounds; and I_S, a
// partition tree over the social network whose nodes carry
// interest-vector MBRs and social pivot hop bounds. Both indexes register
// their nodes with a pagesim.Store so query traversals are charged page
// I/O the way the paper measures it.
package index

import (
	"fmt"
	"math"

	"gpssn/internal/bitvec"
	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/pagesim"
	"gpssn/internal/roadnet"
	"gpssn/internal/rtree"
	"gpssn/internal/topics"
)

// RoadConfig parameterizes BuildRoad.
type RoadConfig struct {
	// Pivots are the road-network pivot vertices rp_1..rp_h.
	Pivots []roadnet.VertexID
	// RMin and RMax bound the query radius r the index will serve
	// (Section 4.1: sup_K uses 2·r_max).
	RMin, RMax float64
	// MaxEntries is the R*-tree node capacity (default 16).
	MaxEntries int
	// BitvecWidth is the width of the hashed V_sup signatures (default
	// max(64, 4·topics)).
	BitvecWidth int
	// PageSize and PoolPages configure the simulated page store (defaults
	// 4096 bytes and 128 pages).
	PageSize, PoolPages int
}

func (c RoadConfig) withDefaults(topics int) RoadConfig {
	if c.MaxEntries == 0 {
		c.MaxEntries = 16
	}
	if c.BitvecWidth == 0 {
		c.BitvecWidth = 4 * topics
		if c.BitvecWidth < 64 {
			c.BitvecWidth = 64
		}
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PoolPages == 0 {
		c.PoolPages = 128
	}
	return c
}

// RoadNodeMeta carries the Section 4.1 augmentation of one I_R node.
type RoadNodeMeta struct {
	// Obj is the node's identity in the page store.
	Obj pagesim.ObjectID
	// Sup is the exact keyword superset sup_K over the subtree: the union
	// of member POIs' ⊙(o_i, 2·r_max) keyword unions.
	Sup topics.Set
	// SupVec is the hashed bit-vector signature V_sup of Sup.
	SupVec *bitvec.Vector
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
	Store  *pagesim.Store
	RMin   float64
	RMax   float64

	cfg     RoadConfig
	poiDist [][]float64      // [poi][pivot] dist_RN(o_i, rp_k)
	poiSup  []topics.Set     // keyword union over ⊙(o_i, 2·r_max) superset
	poiSupV []*bitvec.Vector // hashed signatures of poiSup
	meta    map[*rtree.Node]*RoadNodeMeta
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
	c := cfg.withDefaults(ds.NumTopics)

	idx := &RoadIndex{
		DS:    ds,
		RMin:  c.RMin,
		RMax:  c.RMax,
		cfg:   c,
		Store: pagesim.NewStore(c.PageSize, c.PoolPages),
		meta:  map[*rtree.Node]*RoadNodeMeta{},
	}
	idx.Pivots = roadnet.BuildPivotTable(ds.Road, c.Pivots)

	// Bulk-load the R*-tree over POI locations.
	idx.Tree = rtree.New(rtree.Options{MaxEntries: c.MaxEntries})
	items := make([]rtree.Item, len(ds.POIs))
	for i := range ds.POIs {
		items[i] = rtree.Item{Rect: geo.RectFromPoint(ds.POIs[i].Loc), ID: int32(i)}
	}
	idx.Tree.BulkLoad(items)

	idx.buildPOIAggregates()
	idx.buildNodeMeta(idx.Tree.Root())
	idx.placeNodes()
	return idx, nil
}

// buildPOIAggregates computes the per-POI pivot distances and the sup_K
// keyword supersets of Section 4.1.
func (ix *RoadIndex) buildPOIAggregates() {
	ds := ix.DS
	n := len(ds.POIs)
	ix.poiDist = make([][]float64, n)
	ix.poiSup = make([]topics.Set, n)
	ix.poiSupV = make([]*bitvec.Vector, n)

	for i := range ds.POIs {
		ix.poiDist[i] = ix.Pivots.AttachDistAll(ds.Road, ds.POIs[i].At)
	}
	for i := range ds.POIs {
		p := &ds.POIs[i]
		// sup_K: a sound superset of ∪ keywords over any ball of radius 2r
		// (r ≤ RMax) containing o_i — every member lies within Euclidean
		// distance 2·RMax of o_i, since road distance dominates Euclidean.
		sup := topics.NewSet(ds.NumTopics)
		cands := ix.euclidBall(p.Loc, 2*ix.RMax)
		for _, j := range cands {
			for _, k := range ds.POIs[j].Keywords {
				sup.Add(k)
			}
		}
		ix.poiSup[i] = sup
		v := bitvec.New(ix.cfg.BitvecWidth)
		for f := 0; f < ds.NumTopics; f++ {
			if sup.Has(f) {
				v.SetKeyword(f)
			}
		}
		ix.poiSupV[i] = v
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
		Sup:    topics.NewSet(d),
		SupVec: bitvec.New(ix.cfg.BitvecWidth),
		LbDist: make([]float64, h),
		UbDist: make([]float64, h),
	}
	for k := 0; k < h; k++ {
		m.LbDist[k] = math.Inf(1)
		m.UbDist[k] = math.Inf(-1)
	}
	if n.IsLeaf() {
		for _, e := range n.Entries() {
			id := int(e.ID)
			m.POICount++
			m.Sup.Union(ix.poiSup[id])
			m.SupVec.Or(ix.poiSupV[id])
			for k := 0; k < h; k++ {
				m.LbDist[k] = math.Min(m.LbDist[k], ix.poiDist[id][k])
				m.UbDist[k] = math.Max(m.UbDist[k], ix.poiDist[id][k])
			}
		}
	} else {
		for _, e := range n.Entries() {
			cm := ix.buildNodeMeta(e.Child)
			m.POICount += cm.POICount
			m.Sup.Union(cm.Sup)
			m.SupVec.Or(cm.SupVec)
			for k := 0; k < h; k++ {
				m.LbDist[k] = math.Min(m.LbDist[k], cm.LbDist[k])
				m.UbDist[k] = math.Max(m.UbDist[k], cm.UbDist[k])
			}
		}
	}
	ix.meta[n] = m
	return m
}

// placeNodes registers each node with the page store in breadth-first
// order. The classic R-tree I/O model applies: one node occupies exactly
// one disk page (node capacity is chosen so a node fits a page), so a node
// access costs one page read on a pool miss.
func (ix *RoadIndex) placeNodes() {
	var next pagesim.ObjectID
	queue := []*rtree.Node{ix.Tree.Root()}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		m := ix.meta[n]
		m.Obj = next
		next++
		if !n.IsLeaf() {
			for _, e := range n.Entries() {
				queue = append(queue, e.Child)
			}
		}
		ix.Store.Place(m.Obj, ix.Store.PageSize())
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

// Access charges the node's page I/O to the store's shared counters (call
// once per node visit). Not safe for concurrent use; the query engine uses
// AccessTracked instead.
func (ix *RoadIndex) Access(n *rtree.Node) { ix.Store.Access(ix.Meta(n).Obj) }

// AccessTracked charges the node's page I/O to a per-query tracker. Safe
// for concurrent use with distinct trackers once the index is built.
func (ix *RoadIndex) AccessTracked(n *rtree.Node, t *pagesim.Tracker) {
	ix.Store.AccessTracked(ix.Meta(n).Obj, t)
}

// POIDist returns the pivot distance vector of a POI (read-only).
func (ix *RoadIndex) POIDist(id model.POIID) []float64 { return ix.poiDist[id] }

// POISup returns the sup_K keyword superset of a POI.
func (ix *RoadIndex) POISup(id model.POIID) topics.Set { return ix.poiSup[id] }

// POISupVec returns the hashed V_sup signature of a POI.
func (ix *RoadIndex) POISupVec(id model.POIID) *bitvec.Vector { return ix.poiSupV[id] }

// Height returns the number of levels of the underlying tree.
func (ix *RoadIndex) Height() int { return ix.Tree.Height() }
