package index

import (
	"fmt"
	"math"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// SocialConfig parameterizes BuildSocial.
type SocialConfig struct {
	// RoadPivots is the shared road pivot table (users store their
	// dist_RN(u_j, rp_k) per Section 4.1). Usually RoadIndex.Pivots.
	RoadPivots *roadnet.PivotTable
	// SocialPivots are the social pivot users sp_1..sp_l.
	SocialPivots []socialnet.UserID
	// LeafSize is the target users per leaf partition (default 64).
	LeafSize int
	// Fanout is the non-leaf branching factor (default 8).
	Fanout int
	// Deprecated: no effect; kept because benchmark/probes.go sets it
	PageSize, PoolPages int
}

func (c SocialConfig) withDefaults() SocialConfig {
	if c.LeafSize == 0 {
		c.LeafSize = 64
	}
	if c.Fanout == 0 {
		c.Fanout = 8
	}
	return c
}

// SNode is a node of the I_S partition tree. Leaves hold the users of one
// graph partition; non-leaves hold children. Every node carries the
// Section 4.1 aggregates the traversal reads: the interest MBR [LbW, UbW]
// of Eqs. (9)-(10) and the social pivot hop bounds of Eqs. (11)-(12).
type SNode struct {
	Level    int // 0 for leaves
	Children []*SNode
	Users    []socialnet.UserID

	LbW, UbW     []float64
	LbHop, UbHop []int32
	// UserCount is the number of users under the node.
	UserCount int
	// First is the leaf position of the node's first user: the subtree's
	// users are exactly the positions [First, First+UserCount) of the leaf
	// order, and a leaf's Users[i] sits at First+i.
	First int
}

// Holds reports whether leaf position pos lies in the node's subtree.
func (n *SNode) Holds(pos int) bool { return pos >= n.First && pos < n.First+n.UserCount }

// IsLeaf reports whether n is a leaf.
func (n *SNode) IsLeaf() bool { return len(n.Children) == 0 }

// SocialIndex is the I_S index.
type SocialIndex struct {
	DS         *model.Dataset
	Root       *SNode
	HopPivots  *socialnet.HopPivotTable
	RoadPivots *roadnet.PivotTable

	cfg    SocialConfig
	pos    []int32   // user → leaf position
	hops   []int32   // l social pivot hops per leaf position
	rd     []float64 // h road pivot distances per leaf position
	l, h   int
	height int
}

// BuildSocial constructs I_S over the dataset's users.
func BuildSocial(ds *model.Dataset, cfg SocialConfig) (*SocialIndex, error) {
	if cfg.RoadPivots == nil {
		return nil, fmt.Errorf("index: social index needs the road pivot table")
	}
	if len(cfg.SocialPivots) == 0 {
		return nil, fmt.Errorf("index: social index needs at least one social pivot")
	}
	if ds.Social.NumUsers() == 0 {
		return nil, fmt.Errorf("index: dataset has no users")
	}
	c := cfg.withDefaults()

	ix := &SocialIndex{
		DS:         ds,
		RoadPivots: cfg.RoadPivots,
		cfg:        c,
	}
	ix.HopPivots = socialnet.BuildHopPivotTable(ds.Social, c.SocialPivots)
	ix.l, ix.h = ix.HopPivots.NumPivots(), ix.RoadPivots.NumPivots()

	// Leaves from graph partitioning, then recursive grouping. Leaves are
	// ordered by interest-centroid proximity (greedy nearest-neighbour
	// chaining) before chunking into parents, so parent interest MBRs stay
	// tight and the Lemma 8 index-level pruning keeps its power.
	parts := socialnet.Partition(ds.Social, c.LeafSize)
	nodes := make([]*SNode, len(parts))
	for i, part := range parts {
		nodes[i] = &SNode{Level: 0, Users: part}
	}
	nodes = ix.chainByInterest(nodes)
	// Parents chunk the chained leaves in order, so the chain is the
	// tree's DFS leaf order: numbering its users consecutively gives every
	// subtree one contiguous range of positions. The per-user pivot rows
	// are stored flat in that order.
	nu := ds.Social.NumUsers()
	ix.pos = make([]int32, nu)
	ix.hops = make([]int32, nu*ix.l)
	ix.rd = make([]float64, nu*ix.h)
	next := 0
	for _, n := range nodes {
		n.First = next
		for _, u := range n.Users {
			ix.pos[u] = int32(next)
			for k := 0; k < ix.l; k++ {
				ix.hops[next*ix.l+k] = ix.HopPivots.Hops(k, u)
			}
			copy(ix.rd[next*ix.h:], ix.RoadPivots.AttachDistAll(ds.Road, ds.Users[u].At))
			next++
		}
		ix.computeLeafAggregates(n)
	}
	level := 0
	for len(nodes) > 1 {
		level++
		var parents []*SNode
		for i := 0; i < len(nodes); i += c.Fanout {
			j := i + c.Fanout
			if j > len(nodes) {
				j = len(nodes)
			}
			p := &SNode{Level: level, Children: nodes[i:j:j], First: nodes[i].First}
			ix.computeParentAggregates(p)
			parents = append(parents, p)
		}
		nodes = parents
	}
	ix.Root = nodes[0]
	ix.height = ix.Root.Level + 1
	return ix, nil
}

// chainByInterest orders leaves by greedy nearest-neighbour chaining on
// their interest centroids (L1 distance), so sequential chunking yields
// parents of interest-coherent leaves.
func (ix *SocialIndex) chainByInterest(leaves []*SNode) []*SNode {
	if len(leaves) <= 2 {
		return leaves
	}
	d := ix.DS.NumTopics
	centroid := make([][]float64, len(leaves))
	for i, n := range leaves {
		c := make([]float64, d)
		for _, u := range n.Users {
			for f, p := range ix.DS.Users[u].Interests {
				c[f] += p
			}
		}
		for f := range c {
			c[f] /= float64(len(n.Users))
		}
		centroid[i] = c
	}
	l1 := func(a, b []float64) float64 {
		s := 0.0
		for f := range a {
			s += math.Abs(a[f] - b[f])
		}
		return s
	}
	used := make([]bool, len(leaves))
	order := make([]*SNode, 0, len(leaves))
	cur := 0
	used[0] = true
	order = append(order, leaves[0])
	for len(order) < len(leaves) {
		best, bestD := -1, math.Inf(1)
		for j := range leaves {
			if used[j] {
				continue
			}
			if dd := l1(centroid[cur], centroid[j]); dd < bestD {
				best, bestD = j, dd
			}
		}
		used[best] = true
		order = append(order, leaves[best])
		cur = best
	}
	return order
}

func (ix *SocialIndex) computeLeafAggregates(n *SNode) {
	d := ix.DS.NumTopics
	l := ix.HopPivots.NumPivots()
	n.LbW, n.UbW = make([]float64, d), make([]float64, d)
	n.LbHop, n.UbHop = make([]int32, l), make([]int32, l)
	for f := 0; f < d; f++ {
		n.LbW[f] = math.Inf(1)
	}
	n.UserCount = len(n.Users)
	for _, u := range n.Users {
		w := ix.DS.Users[u].Interests
		for f := 0; f < d; f++ {
			n.LbW[f] = math.Min(n.LbW[f], w[f])
			n.UbW[f] = math.Max(n.UbW[f], w[f])
		}
	}
	// Hop bounds per pivot: LbHop is the minimum finite hop (MaxInt32 when
	// every user is unreachable from the pivot); UbHop is the maximum
	// finite hop, or Unreachable when the node contains any user the pivot
	// cannot see (the interval then extends to +∞).
	for k := 0; k < l; k++ {
		lb := int32(math.MaxInt32)
		ubFinite := int32(0)
		hasInf := false
		for _, u := range n.Users {
			hop := ix.UserHops(u)[k]
			if hop == socialnet.Unreachable {
				hasInf = true
				continue
			}
			if hop < lb {
				lb = hop
			}
			if hop > ubFinite {
				ubFinite = hop
			}
		}
		n.LbHop[k] = lb
		if hasInf {
			n.UbHop[k] = socialnet.Unreachable
		} else {
			n.UbHop[k] = ubFinite
		}
	}
}

func (ix *SocialIndex) computeParentAggregates(n *SNode) {
	d := ix.DS.NumTopics
	l := ix.HopPivots.NumPivots()
	n.LbW, n.UbW = make([]float64, d), make([]float64, d)
	n.LbHop, n.UbHop = make([]int32, l), make([]int32, l)
	for f := 0; f < d; f++ {
		n.LbW[f] = math.Inf(1)
	}
	for k := 0; k < l; k++ {
		n.LbHop[k] = math.MaxInt32
	}
	for _, c := range n.Children {
		n.UserCount += c.UserCount
		for f := 0; f < d; f++ {
			n.LbW[f] = math.Min(n.LbW[f], c.LbW[f])
			n.UbW[f] = math.Max(n.UbW[f], c.UbW[f])
		}
		for k := 0; k < l; k++ {
			if c.LbHop[k] < n.LbHop[k] {
				n.LbHop[k] = c.LbHop[k]
			}
			if c.UbHop[k] == socialnet.Unreachable {
				n.UbHop[k] = socialnet.Unreachable
			} else if n.UbHop[k] != socialnet.Unreachable && c.UbHop[k] > n.UbHop[k] {
				n.UbHop[k] = c.UbHop[k]
			}
		}
	}
}

// UserHops returns the social pivot hop vector of an indexed user
// (read-only).
func (ix *SocialIndex) UserHops(u socialnet.UserID) []int32 { return ix.HopsAt(int(ix.pos[u])) }

// UserRoadDist returns the road pivot distance vector of an indexed user
// (read-only).
func (ix *SocialIndex) UserRoadDist(u socialnet.UserID) []float64 {
	i := int(ix.pos[u]) * ix.h
	return ix.rd[i : i+ix.h : i+ix.h]
}

// Pos returns the leaf position of an indexed user.
func (ix *SocialIndex) Pos(u socialnet.UserID) int { return int(ix.pos[u]) }

// Positions returns every indexed user's leaf position, indexed by user id
// (read-only).
func (ix *SocialIndex) Positions() []int32 { return ix.pos }

// HopsAt returns the social pivot hop vector of the user at leaf position
// i (read-only): the leaf sweep reads it by position, in storage order.
func (ix *SocialIndex) HopsAt(i int) []int32 {
	i *= ix.l
	return ix.hops[i : i+ix.l : i+ix.l]
}

// Height returns the number of levels (1 for a single-leaf tree).
func (ix *SocialIndex) Height() int { return ix.height }

// HopLowerBoundToNode returns Eq. (19): a lower bound on the hop distance
// from the query user (given its pivot hop vector) to any user under the
// node. The second result is false when the bound proves nothing (e.g.
// pivots unreachable from the query user).
func (ix *SocialIndex) HopLowerBoundToNode(qHops []int32, n *SNode) (int32, bool) {
	var lb int32
	informative := false
	for k := range qHops {
		q := qHops[k]
		if q == socialnet.Unreachable {
			// Pivot cannot see the query user: if the node has any user
			// reachable from this pivot, those users are provably in a
			// different component than u_q... only if u_q's component
			// misses the pivot entirely. That direction is handled during
			// refinement; here we skip the pivot.
			continue
		}
		nodeLb, nodeUb := n.LbHop[k], n.UbHop[k]
		if nodeLb == math.MaxInt32 {
			// Every user under the node is unreachable from pivot k while
			// u_q is reachable: different components, infinite distance.
			return math.MaxInt32, true
		}
		informative = true
		var cand int32
		switch {
		case q < nodeLb:
			cand = nodeLb - q
		case nodeUb != socialnet.Unreachable && q > nodeUb:
			cand = q - nodeUb
		default:
			cand = 0
		}
		if cand > lb {
			lb = cand
		}
	}
	return lb, informative
}
