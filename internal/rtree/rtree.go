// Package rtree implements a static R-tree over 2D points and rectangles,
// built in one pass by sort-tile-recursive (STR) packing (Leutenegger,
// Lopez, Edgington; ICDE 1997). It is the spatial substrate for the GP-SSN
// road-network index I_R, whose nodes package index augments with keyword
// distances and pivot-distance bounds, and the nearest-neighbour index of
// the road generator. The paper builds I_R as an R*-tree by insertion; a
// bulk-loaded tree answers the same queries, and every caller has all its
// items up front. It provides range search and best-first
// nearest-neighbour search; there is no insertion or deletion.
package rtree

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gpssn/internal/geo"
)

// Options configure a Tree.
type Options struct {
	// MaxEntries is the node capacity. Default 16, at least 4.
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

// Node is a tree node. Nodes are exported read-only so that the GP-SSN
// index can traverse the structure and attach per-node aggregates; mutating
// a node outside this package corrupts the tree.
type Node struct {
	leaf    bool
	level   int // 0 for leaves
	entries []Entry
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

// Tree is an R-tree. The zero value is not usable; create trees with New
// and fill them with BulkLoad.
type Tree struct {
	opts Options
	root *Node
	size int
}

// New returns an empty tree with the given options.
func New(opts Options) *Tree {
	return &Tree{
		opts: opts.withDefaults(),
		root: &Node{leaf: true, level: 0},
	}
}

// Len returns the number of items stored.
func (t *Tree) Len() int { return t.size }

// Root returns the root node for read-only traversal.
func (t *Tree) Root() *Node { return t.root }

// Height returns the number of levels in the tree (1 for a root-only tree).
func (t *Tree) Height() int { return t.root.level + 1 }

// BulkLoad builds the tree from scratch using sort-tile-recursive packing.
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
		e := min(s+perSlice, n)
		slice := items[s:e]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for o := 0; o < len(slice); o += cap {
			oe := min(o+cap, len(slice))
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
		e := min(s+perSlice, n)
		slice := make([]*Node, e-s)
		copy(slice, children[s:e])
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Bounds().Center().Y < slice[j].Bounds().Center().Y
		})
		for o := 0; o < len(slice); o += cap {
			oe := min(o+cap, len(slice))
			p := &Node{leaf: false, level: level}
			for _, c := range slice[o:oe] {
				p.entries = append(p.entries, Entry{Rect: c.Bounds(), Child: c})
			}
			parents = append(parents, p)
		}
	}
	return parents
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

// Neighbor is a nearest-neighbour result.
type Neighbor struct {
	Item Item
	Dist float64
}

// Nearest returns the k items nearest to p in increasing distance order
// (MINDIST best-first search). Its queue comes from nnHeaps, so a call
// allocates only the result.
func (t *Tree) Nearest(p geo.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	h := nnHeaps.Get().(*nnHeap)
	defer func() {
		h.items = h.items[:0]
		nnHeaps.Put(h)
	}()
	h.push(nnEntry{node: t.root})
	out := make([]Neighbor, 0, min(k, t.size))
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
				h.push(nnEntry{dist: d, item: Item{Rect: e.Rect, ID: e.ID}, leaf: true})
			} else {
				h.push(nnEntry{dist: d, node: e.Child})
			}
		}
	}
	return out
}

// nnEntry is one Nearest queue entry: a node, or a leaf item.
type nnEntry struct {
	dist float64
	node *Node
	item Item
	leaf bool
}

// nnHeap is a small hand-rolled binary min-heap for Nearest; using a typed
// heap avoids container/heap interface allocations in this hot path.
type nnHeap struct {
	items []nnEntry
}

// nnHeaps recycles Nearest's queues, which grow to hundreds of entries on
// wide nodes: a pool rather than a field of the Tree, because any number
// of readers may search one tree at once.
var nnHeaps = sync.Pool{New: func() any { return new(nnHeap) }}

func (h *nnHeap) len() int { return len(h.items) }

func (h *nnHeap) push(e nnEntry) {
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

func (h *nnHeap) pop() nnEntry {
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
// counts, level consistency) and returns a descriptive error for the
// first violation. Tests call it after building a tree.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *Node, isRoot bool) error
	walk = func(n *Node, isRoot bool) error {
		if len(n.entries) > t.opts.MaxEntries {
			return fmt.Errorf("node at level %d has %d entries > max %d", n.level, len(n.entries), t.opts.MaxEntries)
		}
		if !isRoot && len(n.entries) == 0 {
			return fmt.Errorf("empty non-root node at level %d", n.level)
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
