package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/geo"
	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/pivot"
	"gpssn/internal/socialnet"
)

// topicValue draws one interest entry, biased towards the edge cases the
// table's bit-identity argument has to survive: mostly zeros (both signs),
// exact 0 and 1, subnormals, and ordinary values in (0, 1).
func topicValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(10); {
	case r < 5:
		return 0
	case r == 5:
		return math.Copysign(0, -1) // passes validation: -0 >= 0
	case r == 6:
		return 1
	case r == 7:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	default:
		return rng.Float64()
	}
}

// topicVectors draws n interest vectors of length d, the first all-zero.
func topicVectors(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		if i == 0 {
			continue
		}
		for f := range out[i] {
			out[i][f] = topicValue(rng)
		}
	}
	return out
}

// kwRowOf is a keyword distance row whose radius-2 set is exactly kws:
// members at the radius itself, the rest just past matchUb's slack or at
// +Inf, so the exact set is matchUb's reference.
func kwRowOf(kws TopicSet, d int) []float32 {
	row := make([]float32, d)
	for f := range row {
		switch {
		case kws.Has(f):
			row[f] = 2
		case f%2 == 0:
			row[f] = math.Nextafter32(float32(2*(1+1e-9)), 3)
		default:
			row[f] = float32(math.Inf(1))
		}
	}
	return row
}

// checkRowsMatchDense compares every table kernel on rows a and b with the
// dense reference on vectors wa and wb, bit for bit.
func checkRowsMatchDense(t *testing.T, name string, ut *userTopics, a, b topicRow, wa, wb []float64, sets []TopicSet) {
	t.Helper()
	same := func(kernel string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s %s: table %v (%#x), dense %v (%#x)", name, kernel, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	same("dot", dot(a, b), InterestScore(wa, wb))
	for _, m := range []InterestMetric{MetricDotProduct, MetricJaccard, MetricHamming} {
		same(m.String(), ut.similarity(m, a, b), Similarity(m, wa, wb))
	}
	for i, kws := range sets {
		same(fmt.Sprintf("match set %d", i), a.match(kws), MatchScoreSet(wa, kws))
		same(fmt.Sprintf("matchUb set %d", i), a.matchUb(kwRowOf(kws, len(wa)), 2), MatchScoreSet(wa, kws))
	}
}

// randomSets draws keyword sets over d topics: empty, full, and random.
func randomSets(rng *rand.Rand, d int) []TopicSet {
	full := NewTopicSet(d)
	for f := 0; f < d; f++ {
		full.Add(f)
	}
	sets := []TopicSet{NewTopicSet(d), full}
	for i := 0; i < 4; i++ {
		s := NewTopicSet(d)
		for f := 0; f < d; f++ {
			if rng.Intn(3) == 0 {
				s.Add(f)
			}
		}
		sets = append(sets, s)
	}
	return sets
}

// TestUserTopicsMatchDense checks the user topic table's kernels against
// the dense InterestScore, MatchScoreSet and Similarity with
// math.Float64bits: across mask word boundaries, on all-zero vectors,
// signed zeros, exact 0 and 1 and subnormals, and on rows of users laid
// out in I_S leaf order and appended through AddUser.
func TestUserTopicsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, d := range []int{1, 32, 63, 64, 65, 130} {
		vecs := topicVectors(rng, 24, d)
		ds := &model.Dataset{NumTopics: d}
		for i, w := range vecs {
			ds.Users = append(ds.Users, model.User{ID: socialnet.UserID(i), Interests: w})
		}
		ut := newUserTopics(ds, nil)
		sets := randomSets(rng, d)
		for i := range vecs {
			for j := range vecs {
				name := fmt.Sprintf("d=%d users %d,%d", d, i, j)
				checkRowsMatchDense(t, name, ut, ut.at(i), ut.at(j), vecs[i], vecs[j], sets)
			}
		}
	}

	// Indexed users at their leaf positions, plus users appended through
	// AddUser at row = id.
	ds := smallDataset(t, 35)
	e := buildEngine(t, ds, Options{})
	for i, w := range topicVectors(rng, 8, ds.NumTopics) {
		id := socialnet.UserID(len(ds.Users))
		if i == 1 {
			w[0] = 1 // one appended user with an exact 1 in the first topic
		}
		if err := e.AddUser(model.User{ID: id, Loc: geo.Pt(0, 0), At: ds.Users[0].At, Interests: w}); err != nil {
			t.Fatal(err)
		}
	}
	ut := e.topics
	if ut.rows() != len(ds.Users) {
		t.Fatalf("table has %d rows for %d users", ut.rows(), len(ds.Users))
	}
	sets := randomSets(rng, ds.NumTopics)
	for u := range ds.Users {
		for v := range ds.Users {
			a, b := socialnet.UserID(u), socialnet.UserID(v)
			name := fmt.Sprintf("engine users %d,%d", u, v)
			checkRowsMatchDense(t, name, ut, ut.user(a), ut.user(b), ds.Users[u].Interests, ds.Users[v].Interests, sets)
		}
	}
}

// markUQPath marks the nodes on the root-to-leaf path of u, and reports
// whether u lives under n: the tree walk the traversal's leaf-range tests
// replace, kept as their reference.
func markUQPath(n *index.SNode, u socialnet.UserID, path map[*index.SNode]bool) bool {
	if n.IsLeaf() {
		for _, v := range n.Users {
			if v == u {
				path[n] = true
				return true
			}
		}
		return false
	}
	for _, c := range n.Children {
		if markUQPath(c, u, path) {
			path[n] = true
			return true
		}
	}
	return false
}

// TestLeafRangesMatchPaths checks the traversal's two range tests against
// the tree walk: a node is on an issuer's path iff its leaf range holds
// the issuer's position, and hop-unsafe iff its range holds a user touched
// by a new friendship edge.
func TestLeafRangesMatchPaths(t *testing.T) {
	ds := smallDataset(t, 36)
	e := buildEngine(t, ds, Options{})
	var nodes []*index.SNode
	var collect func(n *index.SNode)
	collect = func(n *index.SNode) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(e.Social.Root)

	n := len(ds.Users)
	for u := 0; u < n; u++ {
		path := map[*index.SNode]bool{}
		if !markUQPath(e.Social.Root, socialnet.UserID(u), path) {
			t.Fatalf("user %d is under no leaf", u)
		}
		for _, nd := range nodes {
			if got := nd.Holds(e.Social.Pos(socialnet.UserID(u))); got != path[nd] {
				t.Fatalf("user %d, node at level %d [%d,+%d): range test %v, path %v", u, nd.Level, nd.First, nd.UserCount, got, path[nd])
			}
		}
	}

	rng := rand.New(rand.NewSource(36))
	touched := map[socialnet.UserID]bool{}
	unsafe := map[*index.SNode]bool{}
	check := func(step string) {
		t.Helper()
		for _, nd := range nodes {
			if got := e.hopUnsafe(nd); got != unsafe[nd] {
				t.Fatalf("%s: node at level %d [%d,+%d): hopUnsafe %v, path walk %v", step, nd.Level, nd.First, nd.UserCount, got, unsafe[nd])
			}
		}
		for u := 0; u < n; u++ {
			if got := e.pivotPruningSafe(socialnet.UserID(u)); got == touched[socialnet.UserID(u)] {
				t.Fatalf("%s: user %d pivotPruningSafe %v, touched %v", step, u, got, touched[socialnet.UserID(u)])
			}
		}
	}
	check("no edges")
	for i := 0; i < 12; i++ {
		a, b := socialnet.UserID(rng.Intn(n)), socialnet.UserID(rng.Intn(n))
		if a == b {
			continue
		}
		changed, err := e.AddFriendship(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			for _, u := range []socialnet.UserID{a, b} {
				touched[u] = true
				markUQPath(e.Social.Root, u, unsafe)
			}
		}
		check(fmt.Sprintf("after edge %d-%d", a, b))
	}
	if len(e.dyn.touched) != len(touched) {
		t.Fatalf("%d touched positions for %d touched users", len(e.dyn.touched), len(touched))
	}
}

// BenchmarkLeafUserTest times one I_S leaf sweep of the object-level
// interest (Lemma 3) and hop (Lemma 4) tests at uni_cold's scale and shape:
// 7,500 users over 32 topics, the default 64-user leaf target (this leaf
// holds 72), five social pivots, γ = 0.5, τ = 4.
func BenchmarkLeafUserTest(b *testing.B) {
	ds, err := gen.Synthetic(gen.Config{
		Name: "leaf-sweep", Seed: 101,
		RoadVertices: 1000, SocialUsers: 7500, POIs: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	rp := pivot.RandomRoad(ds.Road, 5, 11)
	road, err := index.BuildRoad(ds, index.RoadConfig{Pivots: rp, RMin: 0.5, RMax: 4})
	if err != nil {
		b.Fatal(err)
	}
	social, err := index.BuildSocial(ds, index.SocialConfig{
		RoadPivots: road.Pivots, SocialPivots: pivot.RandomSocial(ds.Social, 5, 12),
	})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(ds, road, social, Options{Parallelism: 1})
	leaf := e.Social.Root
	for !leaf.IsLeaf() {
		leaf = leaf.Children[len(leaf.Children)/2]
	}
	const uq = socialnet.UserID(17)
	p := Params{Gamma: 0.5, Tau: 4, Theta: 0.5, R: 1, Metric: MetricDotProduct}
	uqRow, uqHops := e.topics.user(uq), e.Social.UserHops(uq)
	var st Stats
	cand := make([]socialnet.UserID, 0, len(leaf.Users))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand = e.leafUsers(leaf, uq, p, uqRow, uqHops, &st, cand[:0])
	}
	b.ReportMetric(float64(len(leaf.Users)), "users/op")
	b.ReportMetric(float64(len(cand)), "survivors/op")
}
