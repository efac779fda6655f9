// Package rtree implements an R*-tree (Beckmann, Kriegel, Schneider, Seeger;
// SIGMOD 1990) over 2D points and rectangles. It is the spatial substrate
// for the GP-SSN road-network index I_R: the paper inserts POI locations
// into an R*-tree and augments its nodes with keyword signatures and
// pivot-distance bounds (done by package index on top of this tree).
//
// The implementation provides the full R* insertion algorithm — subtree
// choice by minimum overlap enlargement at the leaf level, forced
// reinsertion on first overflow per level, and the R* topological split
// (axis selection by minimum margin sum, distribution selection by minimum
// overlap) — plus deletion with tree condensation, range search, and
// best-first nearest-neighbour search.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"gpssn/internal/geo"
)

// Options configure a Tree.
type Options struct {
	// MaxEntries is the node capacity M. Minimum fill m is MaxEntries*2/5
	// per the R* paper recommendation. Default 16.
	MaxEntries int
}

func (o Options) withDefaults() Options {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 16
	}
	if o.MaxEntries < 4 {
		o.MaxEntries = 4
	}
	return o
}

// Item is a spatial object stored in the tree: a bounding rectangle (a
// degenerate rectangle for points) and an opaque integer identifier that
// callers map back to their own objects.
type Item struct {
	Rect geo.Rect
	ID   int32
}

// Entry is one slot of a node: either an item (leaf level) or a child
// pointer with its MBR (internal level).
type Entry struct {
	Rect  geo.Rect
	ID    int32 // valid when the owning node is a leaf
	Child *Node // valid when the owning node is internal
}

// Node is an R*-tree node. Nodes are exported read-only so that the GP-SSN
// index can traverse the structure and attach per-node aggregates; mutating
// a node outside this package corrupts the tree.
type Node struct {
	leaf    bool
	level   int // 0 for leaves
	entries []Entry
	parent  *Node
}

// IsLeaf reports whether n is a leaf node.
func (n *Node) IsLeaf() bool { return n.leaf }

// Level returns n's height above the leaf level (leaves are level 0).
func (n *Node) Level() int { return n.level }

// Entries returns n's entry slice. Callers must treat it as read-only.
func (n *Node) Entries() []Entry { return n.entries }

// Bounds returns the MBR of all entries in n.
func (n *Node) Bounds() geo.Rect {
	r := geo.EmptyRect()
	for i := range n.entries {
		r = r.Union(n.entries[i].Rect)
	}
	return r
}

// Tree is an R*-tree. The zero value is not usable; create trees with New.
type Tree struct {
	opts Options
	minE int
	root *Node
	size int

	// reinsertedAt tracks which levels already did a forced reinsert during
	// the current insertion (R* does at most one reinsert per level per
	// insertion).
	reinsertedAt map[int]bool
}

// New returns an empty tree with the given options.
func New(opts Options) *Tree {
	o := opts.withDefaults()
	return &Tree{
		opts: o,
		minE: maxInt(2, o.MaxEntries*2/5),
		root: &Node{leaf: true, level: 0},
	}
}

// Len returns the number of items stored.
func (t *Tree) Len() int { return t.size }

// Root returns the root node for read-only traversal.
func (t *Tree) Root() *Node { return t.root }

// Height returns the number of levels in the tree (1 for a root-only tree).
func (t *Tree) Height() int { return t.root.level + 1 }

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) {
	if !it.Rect.Valid() {
		panic(fmt.Sprintf("rtree: inserting invalid rect %v", it.Rect))
	}
	t.reinsertedAt = map[int]bool{}
	t.insertEntry(Entry{Rect: it.Rect, ID: it.ID}, 0)
	t.size++
}

// InsertPoint adds a point item.
func (t *Tree) InsertPoint(p geo.Point, id int32) {
	t.Insert(Item{Rect: geo.RectFromPoint(p), ID: id})
}

// BulkLoad builds the tree from scratch using sort-tile-recursive packing,
// which produces well-clustered nodes much faster than repeated insertion.
// Any existing contents are discarded.
func (t *Tree) BulkLoad(items []Item) {
	t.size = len(items)
	if len(items) == 0 {
		t.root = &Node{leaf: true, level: 0}
		return
	}
	// Leaf level: STR packing.
	sorted := make([]Item, len(items))
	copy(sorted, items)
	leaves := t.strPack(sorted)
	level := 0
	nodes := leaves
	for len(nodes) > 1 {
		level++
		nodes = t.packParents(nodes, level)
	}
	t.root = nodes[0]
	t.root.parent = nil
}

// strPack groups items into leaf nodes using sort-tile-recursive order.
func (t *Tree) strPack(items []Item) []*Node {
	cap := t.opts.MaxEntries
	n := len(items)
	numLeaves := (n + cap - 1) / cap
	numSlices := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	sort.Slice(items, func(i, j int) bool {
		return items[i].Rect.Center().X < items[j].Rect.Center().X
	})
	perSlice := (n + numSlices - 1) / numSlices
	var leaves []*Node
	for s := 0; s < n; s += perSlice {
		e := minInt(s+perSlice, n)
		slice := items[s:e]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for o := 0; o < len(slice); o += cap {
			oe := minInt(o+cap, len(slice))
			leaf := &Node{leaf: true, level: 0}
			for _, it := range slice[o:oe] {
				leaf.entries = append(leaf.entries, Entry{Rect: it.Rect, ID: it.ID})
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packParents groups child nodes into parents at the given level.
func (t *Tree) packParents(children []*Node, level int) []*Node {
	cap := t.opts.MaxEntries
	sort.Slice(children, func(i, j int) bool {
		return children[i].Bounds().Center().X < children[j].Bounds().Center().X
	})
	n := len(children)
	numParents := (n + cap - 1) / cap
	numSlices := int(math.Ceil(math.Sqrt(float64(numParents))))
	perSlice := (n + numSlices - 1) / numSlices
	var parents []*Node
	for s := 0; s < n; s += perSlice {
		e := minInt(s+perSlice, n)
		slice := make([]*Node, e-s)
		copy(slice, children[s:e])
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Bounds().Center().Y < slice[j].Bounds().Center().Y
		})
		for o := 0; o < len(slice); o += cap {
			oe := minInt(o+cap, len(slice))
			p := &Node{leaf: false, level: level}
			for _, c := range slice[o:oe] {
				c.parent = p
				p.entries = append(p.entries, Entry{Rect: c.Bounds(), Child: c})
			}
			parents = append(parents, p)
		}
	}
	return parents
}

// insertEntry inserts e at the given target level (0 = leaf).
func (t *Tree) insertEntry(e Entry, level int) {
	n := t.chooseSubtree(e.Rect, level)
	if e.Child != nil {
		e.Child.parent = n
	}
	n.entries = append(n.entries, e)
	t.adjustUpward(n)
	if len(n.entries) > t.opts.MaxEntries {
		t.overflowTreatment(n)
	}
}

// chooseSubtree descends from the root to the node at targetLevel that best
// accommodates r: minimum overlap enlargement among leaf parents, minimum
// area enlargement higher up (ties by area).
func (t *Tree) chooseSubtree(r geo.Rect, targetLevel int) *Node {
	n := t.root
	for n.level > targetLevel {
		best := -1
		if n.level == 1 {
			// Children are leaves: minimize overlap enlargement.
			bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
			for i := range n.entries {
				er := n.entries[i].Rect
				union := er.Union(r)
				var before, after float64
				for j := range n.entries {
					if j == i {
						continue
					}
					before += er.OverlapArea(n.entries[j].Rect)
					after += union.OverlapArea(n.entries[j].Rect)
				}
				dOverlap := after - before
				enl := er.Enlargement(r)
				area := er.Area()
				if dOverlap < bestOverlap ||
					(dOverlap == bestOverlap && enl < bestEnl) ||
					(dOverlap == bestOverlap && enl == bestEnl && area < bestArea) {
					best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
				}
			}
		} else {
			bestEnl, bestArea := math.Inf(1), math.Inf(1)
			for i := range n.entries {
				enl := n.entries[i].Rect.Enlargement(r)
				area := n.entries[i].Rect.Area()
				if enl < bestEnl || (enl == bestEnl && area < bestArea) {
					best, bestEnl, bestArea = i, enl, area
				}
			}
		}
		n = n.entries[best].Child
	}
	return n
}

// overflowTreatment handles a node that exceeds capacity: forced reinsert
// the first time a level overflows during this insertion, split otherwise.
func (t *Tree) overflowTreatment(n *Node) {
	if n != t.root && !t.reinsertedAt[n.level] {
		t.reinsertedAt[n.level] = true
		t.reinsert(n)
		return
	}
	t.split(n)
}

// reinsert removes the p entries of n farthest from its center and inserts
// them again from the top (R* forced reinsertion, p = 30% of M).
func (t *Tree) reinsert(n *Node) {
	p := maxInt(1, t.opts.MaxEntries*30/100)
	c := n.Bounds().Center()
	sort.Slice(n.entries, func(i, j int) bool {
		return n.entries[i].Rect.Center().Dist2(c) < n.entries[j].Rect.Center().Dist2(c)
	})
	cut := len(n.entries) - p
	removed := make([]Entry, p)
	copy(removed, n.entries[cut:])
	n.entries = n.entries[:cut]
	t.adjustUpward(n)
	// Close reinsert: nearest first.
	for i := len(removed) - 1; i >= 0; i-- {
		t.insertEntry(removed[i], n.level)
	}
}

// split divides an overflowing node into two and propagates upward.
func (t *Tree) split(n *Node) {
	left, right := rstarSplit(n.entries, t.minE)
	sib := &Node{leaf: n.leaf, level: n.level}
	n.entries = left
	sib.entries = right
	if !n.leaf {
		for i := range n.entries {
			n.entries[i].Child.parent = n
		}
		for i := range sib.entries {
			sib.entries[i].Child.parent = sib
		}
	}
	if n == t.root {
		newRoot := &Node{leaf: false, level: n.level + 1}
		newRoot.entries = []Entry{
			{Rect: n.Bounds(), Child: n},
			{Rect: sib.Bounds(), Child: sib},
		}
		n.parent, sib.parent = newRoot, newRoot
		t.root = newRoot
		return
	}
	parent := n.parent
	sib.parent = parent
	for i := range parent.entries {
		if parent.entries[i].Child == n {
			parent.entries[i].Rect = n.Bounds()
			break
		}
	}
	parent.entries = append(parent.entries, Entry{Rect: sib.Bounds(), Child: sib})
	t.adjustUpward(parent)
	if len(parent.entries) > t.opts.MaxEntries {
		t.overflowTreatment(parent)
	}
}

// adjustUpward refreshes MBRs from n to the root.
func (t *Tree) adjustUpward(n *Node) {
	for cur := n; cur.parent != nil; cur = cur.parent {
		p := cur.parent
		for i := range p.entries {
			if p.entries[i].Child == cur {
				p.entries[i].Rect = cur.Bounds()
				break
			}
		}
	}
}

// rstarSplit implements the R* topological split: pick the axis with the
// smallest total margin over all candidate distributions, then the
// distribution with the smallest overlap (ties by combined area).
func rstarSplit(entries []Entry, minE int) (left, right []Entry) {
	type distribution struct {
		sorted []Entry
		k      int // split position
	}
	axisCost := func(sorted []Entry) (marginSum float64, best distribution) {
		bestOverlap, bestArea := math.Inf(1), math.Inf(1)
		m := len(sorted)
		prefix := make([]geo.Rect, m+1)
		suffix := make([]geo.Rect, m+1)
		prefix[0], suffix[m] = geo.EmptyRect(), geo.EmptyRect()
		for i := 0; i < m; i++ {
			prefix[i+1] = prefix[i].Union(sorted[i].Rect)
			suffix[m-1-i] = suffix[m-i].Union(sorted[m-1-i].Rect)
		}
		for k := minE; k <= m-minE; k++ {
			l, r := prefix[k], suffix[k]
			marginSum += l.Margin() + r.Margin()
			overlap := l.OverlapArea(r)
			area := l.Area() + r.Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				best = distribution{sorted: sorted, k: k}
			}
		}
		return marginSum, best
	}

	byX := make([]Entry, len(entries))
	copy(byX, entries)
	sort.Slice(byX, func(i, j int) bool {
		if byX[i].Rect.Min.X != byX[j].Rect.Min.X {
			return byX[i].Rect.Min.X < byX[j].Rect.Min.X
		}
		return byX[i].Rect.Max.X < byX[j].Rect.Max.X
	})
	byY := make([]Entry, len(entries))
	copy(byY, entries)
	sort.Slice(byY, func(i, j int) bool {
		if byY[i].Rect.Min.Y != byY[j].Rect.Min.Y {
			return byY[i].Rect.Min.Y < byY[j].Rect.Min.Y
		}
		return byY[i].Rect.Max.Y < byY[j].Rect.Max.Y
	})

	mx, dx := axisCost(byX)
	my, dy := axisCost(byY)
	chosen := dx
	if my < mx {
		chosen = dy
	}
	left = append([]Entry(nil), chosen.sorted[:chosen.k]...)
	right = append([]Entry(nil), chosen.sorted[chosen.k:]...)
	return left, right
}

// Delete removes one item with the given id whose stored rectangle equals
// rect. It returns false when no such item exists.
func (t *Tree) Delete(rect geo.Rect, id int32) bool {
	leaf, idx := t.findLeaf(t.root, rect, id)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(leaf)
	// Shrink the root when it has a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].Child
		t.root.parent = nil
	}
	return true
}

func (t *Tree) findLeaf(n *Node, rect geo.Rect, id int32) (*Node, int) {
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].ID == id && n.entries[i].Rect == rect {
				return n, i
			}
		}
		return nil, -1
	}
	for i := range n.entries {
		if n.entries[i].Rect.ContainsRect(rect) {
			if leaf, idx := t.findLeaf(n.entries[i].Child, rect, id); leaf != nil {
				return leaf, idx
			}
		}
	}
	return nil, -1
}

// condense removes underfull nodes along the path from n to the root and
// reinserts their orphaned entries.
func (t *Tree) condense(n *Node) {
	type orphan struct {
		e     Entry
		level int
	}
	var orphans []orphan
	for cur := n; cur.parent != nil; {
		p := cur.parent
		if len(cur.entries) < t.minE {
			for i := range p.entries {
				if p.entries[i].Child == cur {
					p.entries = append(p.entries[:i], p.entries[i+1:]...)
					break
				}
			}
			for _, e := range cur.entries {
				orphans = append(orphans, orphan{e: e, level: cur.level})
			}
		} else {
			for i := range p.entries {
				if p.entries[i].Child == cur {
					p.entries[i].Rect = cur.Bounds()
					break
				}
			}
		}
		cur = p
	}
	for _, o := range orphans {
		t.reinsertedAt = map[int]bool{}
		t.insertEntry(o.e, o.level)
	}
}

// Search calls fn for every item whose rectangle intersects q. Returning
// false from fn stops the search.
func (t *Tree) Search(q geo.Rect, fn func(Item) bool) {
	t.search(t.root, q, fn)
}

func (t *Tree) search(n *Node, q geo.Rect, fn func(Item) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.Rect.Intersects(q) {
			continue
		}
		if n.leaf {
			if !fn(Item{Rect: e.Rect, ID: e.ID}) {
				return false
			}
		} else if !t.search(e.Child, q, fn) {
			return false
		}
	}
	return true
}

// SearchAll returns all items intersecting q.
func (t *Tree) SearchAll(q geo.Rect) []Item {
	var out []Item
	t.Search(q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// Neighbor is a nearest-neighbour result.
type Neighbor struct {
	Item Item
	Dist float64
}

// Nearest returns the k items nearest to p in increasing distance order
// (MINDIST best-first search).
func (t *Tree) Nearest(p geo.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	type qe struct {
		dist float64
		node *Node
		item Item
		leaf bool
	}
	h := &nnHeap{}
	h.push(qe{dist: 0, node: t.root})
	var out []Neighbor
	for h.len() > 0 && len(out) < k {
		top := h.pop()
		if top.leaf {
			out = append(out, Neighbor{Item: top.item, Dist: top.dist})
			continue
		}
		n := top.node
		for i := range n.entries {
			e := &n.entries[i]
			d := e.Rect.MinDistPoint(p)
			if n.leaf {
				h.push(qe{dist: d, item: Item{Rect: e.Rect, ID: e.ID}, leaf: true})
			} else {
				h.push(qe{dist: d, node: e.Child})
			}
		}
	}
	return out
}

// nnHeap is a small hand-rolled binary min-heap for Nearest; using a typed
// heap avoids container/heap interface allocations in this hot path.
type nnHeap struct {
	items []struct {
		dist float64
		node *Node
		item Item
		leaf bool
	}
}

func (h *nnHeap) len() int { return len(h.items) }

func (h *nnHeap) push(e struct {
	dist float64
	node *Node
	item Item
	leaf bool
}) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= h.items[i].dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *nnHeap) pop() struct {
	dist float64
	node *Node
	item Item
	leaf bool
} {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < len(h.items) && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// CheckInvariants validates structural invariants (MBR containment, entry
// counts, level consistency, parent pointers) and returns a descriptive
// error for the first violation. Tests call this after mutation sequences.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *Node, isRoot bool) error
	walk = func(n *Node, isRoot bool) error {
		if len(n.entries) > t.opts.MaxEntries {
			return fmt.Errorf("node at level %d has %d entries > max %d", n.level, len(n.entries), t.opts.MaxEntries)
		}
		if !isRoot && len(n.entries) < t.minE {
			return fmt.Errorf("non-root node at level %d underfull: %d < %d", n.level, len(n.entries), t.minE)
		}
		if n.leaf {
			if n.level != 0 {
				return fmt.Errorf("leaf at level %d", n.level)
			}
			count += len(n.entries)
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.Child == nil {
				return fmt.Errorf("internal entry %d at level %d has nil child", i, n.level)
			}
			if e.Child.parent != n {
				return fmt.Errorf("child at level %d has wrong parent pointer", e.Child.level)
			}
			if e.Child.level != n.level-1 {
				return fmt.Errorf("child level %d under node level %d", e.Child.level, n.level)
			}
			cb := e.Child.Bounds()
			if !e.Rect.ContainsRect(cb) {
				return fmt.Errorf("entry MBR %v does not contain child bounds %v", e.Rect, cb)
			}
			if err := walk(e.Child, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("item count %d != size %d", count, t.size)
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
