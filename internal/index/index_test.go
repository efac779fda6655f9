package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/model"
	"gpssn/internal/pivot"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/rtree"
	"gpssn/internal/socialnet"
)

// testDataset caches a small synthetic dataset for the package's tests.
var testDS *model.Dataset

func dataset(t testing.TB) *model.Dataset {
	t.Helper()
	if testDS == nil {
		d, err := gen.Synthetic(gen.Config{
			Name: "idx-test", Seed: 42,
			RoadVertices: 500, SocialUsers: 400, POIs: 300, Topics: 8,
		})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		testDS = d
	}
	return testDS
}

func buildRoad(t testing.TB, ds *model.Dataset) *RoadIndex {
	t.Helper()
	pivots := pivot.RandomRoad(ds.Road, 4, 7)
	ix, err := BuildRoad(ds, RoadConfig{Pivots: pivots, RMin: 0.5, RMax: 4})
	if err != nil {
		t.Fatalf("BuildRoad: %v", err)
	}
	return ix
}

func buildSocial(t testing.TB, ds *model.Dataset, road *RoadIndex) *SocialIndex {
	t.Helper()
	sp := pivot.RandomSocial(ds.Social, 4, 8)
	ix, err := BuildSocial(ds, SocialConfig{
		RoadPivots: road.Pivots, SocialPivots: sp, LeafSize: 32, Fanout: 4,
	})
	if err != nil {
		t.Fatalf("BuildSocial: %v", err)
	}
	return ix
}

func TestBuildRoadRejectsBadConfig(t *testing.T) {
	ds := dataset(t)
	if _, err := BuildRoad(ds, RoadConfig{RMin: 1, RMax: 2}); err == nil {
		t.Error("no pivots should fail")
	}
	p := pivot.RandomRoad(ds.Road, 2, 1)
	if _, err := BuildRoad(ds, RoadConfig{Pivots: p, RMin: 0, RMax: 2}); err == nil {
		t.Error("RMin=0 should fail")
	}
	if _, err := BuildRoad(ds, RoadConfig{Pivots: p, RMin: 3, RMax: 2}); err == nil {
		t.Error("RMin>RMax should fail")
	}
}

func TestRoadIndexNodeBoundsSound(t *testing.T) {
	ds := dataset(t)
	ix := buildRoad(t, ds)
	h := ix.Pivots.NumPivots()
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		m := ix.Meta(n)
		// Node bounds must bracket every member POI's pivot distances.
		var check func(nn *rtree.Node)
		check = func(nn *rtree.Node) {
			if nn.IsLeaf() {
				for _, e := range nn.Entries() {
					id := model.POIID(e.ID)
					for k := 0; k < h; k++ {
						dk := ix.POIDist(id)[k]
						if dk < m.LbDist[k]-1e-9 || dk > m.UbDist[k]+1e-9 {
							t.Fatalf("POI %d dist %v outside node bounds [%v,%v]",
								id, dk, m.LbDist[k], m.UbDist[k])
						}
					}
				}
				return
			}
			for _, e := range nn.Entries() {
				check(e.Child)
			}
		}
		check(n)
		if !n.IsLeaf() {
			for _, e := range n.Entries() {
				walk(e.Child)
			}
		}
	}
	walk(ix.Tree.Root())
}

func TestRoadIndexPOICount(t *testing.T) {
	ds := dataset(t)
	ix := buildRoad(t, ds)
	if got := ix.Meta(ix.Tree.Root()).POICount; got != len(ds.POIs) {
		t.Errorf("root POICount = %d, want %d", got, len(ds.POIs))
	}
}

// ballKeywords is the keyword set of indexed POI o's road ball of radius
// r, built the way the query engine builds the ball: the indexed POIs of
// the Euclidean prefilter and the appended ones within Euclidean r, kept
// when a bounded road search from o reaches them, plus o itself.
func ballKeywords(ix *RoadIndex, o model.POIID, r float64) []bool {
	ds := ix.DS
	pre := ix.EuclidBall(ds.POIs[o].Loc, r)
	for j := ix.Tree.Len(); j < len(ds.POIs); j++ {
		if ds.POIs[j].Loc.Dist(ds.POIs[o].Loc) <= r {
			pre = append(pre, model.POIID(j))
		}
	}
	atts := make([]roadnet.Attach, len(pre))
	for i, j := range pre {
		atts[i] = ds.POIs[j].At
	}
	in := make([]bool, ds.NumTopics)
	for _, k := range ds.POIs[o].Keywords {
		in[k] = true
	}
	for i, d := range ds.Road.DistAttachWithin(ds.POIs[o].At, r, atts) {
		if !math.IsInf(d, 1) {
			for _, k := range ds.POIs[pre[i]].Keywords {
				in[k] = true
			}
		}
	}
	return in
}

// checkKeywordDists checks every indexed POI's keyword distance row
// against its road ball at RMin, RMax, 1, 2.5 and at the boundaries: each
// finite value the row stores, and each road distance to the nearest POI
// carrying a topic, which the stored value rounded down from. The row's set at r — the topics stored
// within r·(1+1e-9), the radius the query side tests — must hold the
// ball's keywords, and equal them when exact: no appended POI, and no
// stored value within float32 rounding below r or inside the slack above
// it. Every node's KwMin must be ≤ every member's row.
func checkKeywordDists(t *testing.T, ix *RoadIndex, exact bool) {
	t.Helper()
	for o := 0; o < ix.Tree.Len(); o++ {
		row := ix.KeywordDist(model.POIID(o))
		radii := []float64{ix.RMin, ix.RMax, 1, 2.5}
		for _, v := range row {
			if !math.IsInf(float64(v), 1) && v > 0 {
				radii = append(radii, float64(v))
			}
		}
		atts := make([]roadnet.Attach, ix.Tree.Len())
		for j := range atts {
			atts[j] = ix.DS.POIs[j].At
		}
		for _, d := range ix.DS.Road.DistAttachWithin(ix.DS.POIs[o].At, ix.RMax, atts) {
			if !math.IsInf(d, 1) && d > 0 {
				radii = append(radii, d)
			}
		}
		for _, r := range radii {
			in := ballKeywords(ix, model.POIID(o), r)
			edge := false
			for _, v := range row {
				edge = edge || (float64(v) > r*(1-0x1p-23) && float64(v) <= r*(1+1e-9))
			}
			for f, v := range row {
				got := float64(v) <= r*(1+1e-9)
				if in[f] && !got {
					t.Fatalf("POI %d r=%v: ball holds topic %d, row stores %v", o, r, f, v)
				}
				if exact && !edge && got && !in[f] {
					t.Fatalf("POI %d r=%v: row stores %v for topic %d, absent from the ball", o, r, v, f)
				}
			}
		}
	}
	var walk func(n *rtree.Node) []model.POIID
	walk = func(n *rtree.Node) []model.POIID {
		var members []model.POIID
		for _, e := range n.Entries() {
			if n.IsLeaf() {
				members = append(members, model.POIID(e.ID))
			} else {
				members = append(members, walk(e.Child)...)
			}
		}
		kwMin := ix.Meta(n).KwMin
		for _, o := range members {
			for f, v := range ix.KeywordDist(o) {
				if kwMin[f] > v {
					t.Fatalf("node KwMin[%d] = %v above member %d's %v", f, kwMin[f], o, v)
				}
			}
		}
		return members
	}
	walk(ix.Tree.Root())
}

func TestKeywordDistMatchesBall(t *testing.T) {
	base := dataset(t)
	ds := *base
	ds.POIs = slices.Clone(base.POIs)
	ix := buildRoad(t, &ds)
	checkKeywordDists(t, ix, true)

	// AddPOI widening: appended POIs join balls the rows must still cover.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		at := ds.Road.AttachAt(roadnet.EdgeID(rng.Intn(ds.Road.NumEdges())), rng.Float64())
		id := model.POIID(len(ds.POIs))
		ds.POIs = append(ds.POIs, model.POI{ID: id, At: at, Loc: ds.Road.Location(at), Keywords: []int{rng.Intn(ds.NumTopics)}})
		ix.AddPOI(id)
	}
	if got := ix.KeywordPOIs(); got != len(ds.POIs) {
		t.Fatalf("KeywordPOIs = %d after in-order appends, want %d", got, len(ds.POIs))
	}
	checkKeywordDists(t, ix, false)

	// An append the index never saw leaves it behind for good.
	ds.POIs = append(ds.POIs, ds.POIs[0], ds.POIs[0])
	ds.POIs[len(ds.POIs)-1].ID = model.POIID(len(ds.POIs) - 1)
	ix.AddPOI(model.POIID(len(ds.POIs) - 1))
	if got := ix.KeywordPOIs(); got != len(ds.POIs)-2 {
		t.Fatalf("KeywordPOIs = %d after an out-of-order append, want %d", got, len(ds.POIs)-2)
	}
}

func TestRoadIndexMetaForeignNodePanics(t *testing.T) {
	ds := dataset(t)
	ix := buildRoad(t, ds)
	other := rtree.New(rtree.Options{})
	defer func() {
		if recover() == nil {
			t.Error("foreign node should panic")
		}
	}()
	ix.Meta(other.Root())
}

func TestBuildSocialRejectsBadConfig(t *testing.T) {
	ds := dataset(t)
	road := buildRoad(t, ds)
	if _, err := BuildSocial(ds, SocialConfig{SocialPivots: []socialnet.UserID{0}}); err == nil {
		t.Error("missing road pivots should fail")
	}
	if _, err := BuildSocial(ds, SocialConfig{RoadPivots: road.Pivots}); err == nil {
		t.Error("missing social pivots should fail")
	}
}

func TestSocialIndexCoversAllUsers(t *testing.T) {
	ds := dataset(t)
	road := buildRoad(t, ds)
	ix := buildSocial(t, ds, road)
	if ix.Root.UserCount != ds.Social.NumUsers() {
		t.Errorf("root UserCount = %d, want %d", ix.Root.UserCount, ds.Social.NumUsers())
	}
	seen := map[socialnet.UserID]bool{}
	var walk func(n *SNode)
	walk = func(n *SNode) {
		if n.IsLeaf() {
			for _, u := range n.Users {
				if seen[u] {
					t.Fatalf("user %d appears in two leaves", u)
				}
				seen[u] = true
			}
			return
		}
		for _, c := range n.Children {
			if c.Level != n.Level-1 {
				t.Fatalf("child level %d under level %d", c.Level, n.Level)
			}
			walk(c)
		}
	}
	walk(ix.Root)
	if len(seen) != ds.Social.NumUsers() {
		t.Errorf("leaves cover %d users, want %d", len(seen), ds.Social.NumUsers())
	}
}

// TestSocialIndexLeafOrder checks the leaf positions and the flat pivot
// rows: the DFS concatenation of the leaves' users is a permutation of the
// indexed users that Pos inverts, every node's position range holds
// exactly its subtree's users, and the rows stored in leaf order equal the
// pivot tables' own vectors for every user.
func TestSocialIndexLeafOrder(t *testing.T) {
	ds := dataset(t)
	road := buildRoad(t, ds)
	ix := buildSocial(t, ds, road)
	n := ds.Social.NumUsers()
	if len(ix.Positions()) != n {
		t.Fatalf("%d leaf positions, want %d", len(ix.Positions()), n)
	}
	var order []socialnet.UserID
	var leaves func(nd *SNode)
	leaves = func(nd *SNode) {
		order = append(order, nd.Users...)
		for _, c := range nd.Children {
			leaves(c)
		}
	}
	leaves(ix.Root)
	if len(order) != n {
		t.Fatalf("leaf order has %d users, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for i, u := range order {
		if seen[u] {
			t.Fatalf("user %d appears twice in the leaf order", u)
		}
		seen[u] = true
		if ix.Pos(u) != i {
			t.Fatalf("Pos(%d) = %d, want %d", u, ix.Pos(u), i)
		}
	}

	var ranges func(nd *SNode) []socialnet.UserID
	ranges = func(nd *SNode) []socialnet.UserID {
		sub := append([]socialnet.UserID(nil), nd.Users...)
		for _, c := range nd.Children {
			sub = append(sub, ranges(c)...)
		}
		if len(sub) != nd.UserCount || nd.First < 0 || nd.First+nd.UserCount > n {
			t.Fatalf("node at level %d: range [%d,+%d) for %d users", nd.Level, nd.First, nd.UserCount, len(sub))
		}
		for i, u := range sub {
			if order[nd.First+i] != u || !nd.Holds(ix.Pos(u)) {
				t.Fatalf("node at level %d: position %d holds user %d, subtree has %d", nd.Level, nd.First+i, order[nd.First+i], u)
			}
		}
		if nd.Holds(nd.First-1) || nd.Holds(nd.First+nd.UserCount) {
			t.Fatalf("node at level %d: Holds reaches outside [%d,+%d)", nd.Level, nd.First, nd.UserCount)
		}
		return sub
	}
	ranges(ix.Root)

	for u := 0; u < n; u++ {
		id := socialnet.UserID(u)
		wantHops := ix.HopPivots.UserVector(id)
		if got := ix.UserHops(id); !slices.Equal(got, wantHops) {
			t.Fatalf("UserHops(%d) = %v, want %v", u, got, wantHops)
		}
		if got := ix.HopsAt(ix.Pos(id)); !slices.Equal(got, wantHops) {
			t.Fatalf("HopsAt(Pos(%d)) = %v, want %v", u, got, wantHops)
		}
		wantRD := ix.RoadPivots.AttachDistAll(ds.Road, ds.Users[u].At)
		got := ix.UserRoadDist(id)
		if len(got) != len(wantRD) {
			t.Fatalf("UserRoadDist(%d) has %d entries, want %d", u, len(got), len(wantRD))
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(wantRD[k]) {
				t.Fatalf("UserRoadDist(%d)[%d] = %v, want %v", u, k, got[k], wantRD[k])
			}
		}
	}
}

func TestSocialIndexAggregatesSound(t *testing.T) {
	ds := dataset(t)
	road := buildRoad(t, ds)
	ix := buildSocial(t, ds, road)
	l := ix.HopPivots.NumPivots()
	var walk func(n *SNode)
	walk = func(n *SNode) {
		var users []socialnet.UserID
		var collect func(nn *SNode)
		collect = func(nn *SNode) {
			users = append(users, nn.Users...)
			for _, c := range nn.Children {
				collect(c)
			}
		}
		collect(n)
		for _, u := range users {
			w := ds.Users[u].Interests
			for f := range w {
				if w[f] < n.LbW[f]-1e-12 || w[f] > n.UbW[f]+1e-12 {
					t.Fatalf("user %d interest %d = %v outside [%v,%v]", u, f, w[f], n.LbW[f], n.UbW[f])
				}
			}
			for k := 0; k < l; k++ {
				hop := ix.UserHops(u)[k]
				if hop == socialnet.Unreachable {
					if n.UbHop[k] != socialnet.Unreachable {
						t.Fatalf("node misses ∞ hop marker for pivot %d", k)
					}
					continue
				}
				if hop < n.LbHop[k] {
					t.Fatalf("user %d hop %d < node lb %d", u, hop, n.LbHop[k])
				}
				if n.UbHop[k] != socialnet.Unreachable && hop > n.UbHop[k] {
					t.Fatalf("user %d hop %d > node ub %d", u, hop, n.UbHop[k])
				}
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(ix.Root)
}

func TestHopLowerBoundToNodeSound(t *testing.T) {
	ds := dataset(t)
	road := buildRoad(t, ds)
	ix := buildSocial(t, ds, road)
	// For a handful of query users, the node lower bound must never exceed
	// the true minimum hop distance to any user under the node.
	for _, q := range []socialnet.UserID{0, 17, 101, 399} {
		trueHops := ds.Social.BFSHops(q)
		qh := ix.UserHops(q)
		var walk func(n *SNode)
		walk = func(n *SNode) {
			lb, informative := ix.HopLowerBoundToNode(qh, n)
			if informative {
				// min true hop distance over users under node.
				minHop := int32(math.MaxInt32)
				var collect func(nn *SNode)
				collect = func(nn *SNode) {
					for _, u := range nn.Users {
						if th := trueHops[u]; th != socialnet.Unreachable && th < minHop {
							minHop = th
						}
					}
					for _, c := range nn.Children {
						collect(c)
					}
				}
				collect(n)
				if lb != math.MaxInt32 && minHop != math.MaxInt32 && lb > minHop {
					t.Fatalf("q=%d: node lb %d > true min hop %d", q, lb, minHop)
				}
				if lb == math.MaxInt32 && minHop != math.MaxInt32 {
					t.Fatalf("q=%d: node claimed unreachable but min hop %d", q, minHop)
				}
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(ix.Root)
	}
}

func TestSocialIndexHeight(t *testing.T) {
	ds := dataset(t)
	road := buildRoad(t, ds)
	ix := buildSocial(t, ds, road)
	if ix.Height() < 2 {
		t.Errorf("Height = %d; 400 users at leaf 32 should give multiple levels", ix.Height())
	}
	if ix.Root.Level != ix.Height()-1 {
		t.Errorf("root level %d inconsistent with height %d", ix.Root.Level, ix.Height())
	}
}

var builtRoad *RoadIndex

// BenchmarkBuildRoad times BuildRoad at the benchmark's uni_cold size
// (7,500 road vertices, 2,500 POIs) under hub labels, the oracle the
// product attaches. The per-POI keyword distance searches are part of
// every Open and Compact.
func BenchmarkBuildRoad(b *testing.B) {
	ds, err := gen.Synthetic(gen.Config{
		Name: "build-road", Seed: 101,
		RoadVertices: 7500, SocialUsers: 7500, POIs: 2500,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	pivots := pivot.RandomRoad(ds.Road, 5, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtRoad, err = BuildRoad(ds, RoadConfig{Pivots: pivots, RMin: 0.5, RMax: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
}
