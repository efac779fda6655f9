package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/model"
	"gpssn/internal/socialnet"
)

// groupCase is one random group-search input: a social graph whose users
// are u_q, n eligible companions (each γ-compatible with u_q), and users
// that are not companions but still have friendships, so the search must
// ignore them. The candidates are the companions and about half of the
// other users: a candidate that is not a companion is a vertex of the
// candGraph the search reads its friend rows from, and must be ignored
// there too.
type groupCase struct {
	ds    *model.Dataset
	ut    *userTopics
	p     Params
	uq    socialnet.UserID
	mUq   float64
	cand  []socialnet.UserID // ascending
	comps []anchorComp       // o unset: ordinals come from graph
}

// graph builds the case's candGraph in ar and returns it with the
// companions, ordinals filled in.
func (c groupCase) graph(ar *refineArena) (*candGraph, []anchorComp) {
	cg := ar.candGraph(c.ds.Social, c.uq, c.cand)
	comps := slices.Clone(c.comps)
	for i := range comps {
		comps[i].o = cg.ord(comps[i].u)
	}
	return cg, comps
}

// randomGroupCase draws a case with exactly n companions. Costs come from
// a small integer range so equal costs are common, and γ is a quantile of
// the sampled similarities so about a third of the pairs are incompatible.
func randomGroupCase(rng *rand.Rand, n, tau int, metric InterestMetric, degree float64) groupCase {
	const topics = 6
	interests := func() []float64 {
		w := make([]float64, topics)
		for i := range w {
			if rng.Float64() < 0.7 {
				w[i] = rng.Float64()
			}
		}
		return w
	}
	var sample []float64
	for i := 0; i < 200; i++ {
		sample = append(sample, Similarity(metric, interests(), interests()))
	}
	slices.Sort(sample)
	p := Params{Gamma: sample[len(sample)/3], Tau: tau, Theta: 0, R: 1, Metric: metric}

	users := []model.User{{ID: 0, Interests: interests()}}
	var comps []anchorComp
	for len(comps) < n {
		if len(users) > 100*(n+1) {
			// u_q's interests are γ-compatible with almost nobody: redraw.
			users, comps = []model.User{{ID: 0, Interests: interests()}}, nil
		}
		u := socialnet.UserID(len(users))
		users = append(users, model.User{ID: u, Interests: interests()})
		if Similarity(metric, users[0].Interests, users[u].Interests) >= p.Gamma {
			comps = append(comps, anchorComp{u: u, m: float64(rng.Intn(12))})
		}
	}
	var cand []socialnet.UserID
	for u := socialnet.UserID(1); int(u) < len(users); u++ {
		if Similarity(metric, users[0].Interests, users[u].Interests) >= p.Gamma || rng.Intn(2) == 0 {
			cand = append(cand, u)
		}
	}
	g := socialnet.NewGraph(len(users))
	edges := int(degree * float64(len(users)) / 2)
	for i := 0; i < edges; i++ {
		g.AddFriendship(socialnet.UserID(rng.Intn(len(users))), socialnet.UserID(rng.Intn(len(users))))
	}
	// A friend of u_q among the companions, so most cases have groups.
	if n > 0 {
		g.AddFriendship(0, comps[rng.Intn(n)].u)
	}
	rng.Shuffle(len(comps), func(i, j int) { comps[i], comps[j] = comps[j], comps[i] })
	ds := &model.Dataset{Social: g, Users: users, NumTopics: topics}
	return groupCase{
		ds:    ds,
		ut:    newUserTopics(ds, nil),
		p:     p,
		uq:    0,
		mUq:   float64(rng.Intn(12)),
		cand:  cand,
		comps: comps,
	}
}

// bruteGroups exhaustively lists the connected τ-subsets of u_q plus the
// companions that contain u_q and are pairwise γ-compatible, and returns
// the cheapest one's cost and the lexicographically smallest sorted group
// at that cost (nil when there is none).
func bruteGroups(c groupCase) (best []socialnet.UserID, cost float64) {
	m := map[socialnet.UserID]float64{c.uq: c.mUq}
	for _, cp := range c.comps {
		m[cp.u] = cp.m
	}

	compatible := func(a, b socialnet.UserID) bool {
		return Similarity(c.p.Metric, c.ds.Users[a].Interests, c.ds.Users[b].Interests) >= c.p.Gamma
	}
	key := func(s []socialnet.UserID) string { return fmt.Sprint(s) }
	layer := map[string][]socialnet.UserID{key([]socialnet.UserID{c.uq}): {c.uq}}
	for size := 1; size < c.p.Tau; size++ {
		next := map[string][]socialnet.UserID{}
		for _, s := range layer {
			for _, u := range s {
				for _, f := range c.ds.Social.Friends(u) {
					if _, ok := m[f]; !ok || slices.Contains(s, f) {
						continue
					}
					ok := true
					for _, v := range s {
						ok = ok && compatible(v, f)
					}
					if !ok {
						continue
					}
					t := append(slices.Clone(s), f)
					slices.Sort(t)
					next[key(t)] = t
				}
			}
		}
		layer = next
	}
	cost = math.Inf(1)
	for _, s := range layer {
		sc := 0.0
		for _, u := range s {
			sc = math.Max(sc, m[u])
		}
		if sc < cost || (sc == cost && lexLessUsers(s, best)) {
			best, cost = s, sc
		}
	}
	return best, cost
}

// TestGroupSearchMatchesBruteForce checks the bitset group search against
// exhaustive enumeration across word boundaries (n on both sides of 64 and
// 128), τ 2..6, all three metrics and duplicated costs, at three bounds:
// +Inf and exactly the optimum must return the optimum and its lex-min
// group, the next float below the optimum must return nothing. One arena
// serves every case, so stale rows from a larger earlier case would show.
func TestGroupSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ar := &refineArena{owner: &arenaPool{}}
	var pairs atomic.Int64
	cases, found := 0, 0
	for _, n := range []int{1, 5, 63, 64, 65, 129} {
		for tau := 2; tau <= 6; tau++ {
			for _, metric := range []InterestMetric{MetricDotProduct, MetricJaccard, MetricHamming} {
				for rep := 0; rep < 2; rep++ {
					degree := 3.0
					if n <= 5 {
						degree = 5
					}
					c := randomGroupCase(rng, n, tau, metric, degree)
					wantS, wantCost := bruteGroups(c)
					name := fmt.Sprintf("n=%d τ=%d %s rep %d", n, tau, metric, rep)
					cases++

					cg, comps := c.graph(ar)
					g := ar.groups(cg, c.ut, c.p, c.uq, c.mUq, comps)
					if wantS == nil {
						if s, cost := g.enumerateGroups(math.Inf(1), &pairs, nil); s != nil {
							t.Fatalf("%s: found %v at %v, brute force finds no group", name, s, cost)
						}
						continue
					}
					found++
					for _, bound := range []float64{math.Inf(1), wantCost} {
						s, cost := g.enumerateGroups(bound, &pairs, nil)
						if cost != wantCost || !slices.Equal(s, wantS) {
							t.Fatalf("%s bound %v: got %v at %v, want %v at %v", name, bound, s, cost, wantS, wantCost)
						}
					}
					below := math.Nextafter(wantCost, math.Inf(-1))
					if s, cost := g.enumerateGroups(below, &pairs, nil); s != nil {
						t.Fatalf("%s bound %v: got %v at %v, want nothing below the optimum %v", name, below, s, cost, wantCost)
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d with a feasible group", cases, found)
	if found < cases/2 {
		t.Errorf("only %d of %d cases have a feasible group; the generator no longer exercises the search", found, cases)
	}
}

// TestGroupSearchWarmArenaAllocs pins the group search's allocation
// contract: on a reused arena, re-indexing the companions and the
// enumeration allocate nothing but the group returned.
func TestGroupSearchWarmArenaAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates on its own, so absolute counts are meaningless")
	}
	c := randomGroupCase(rand.New(rand.NewSource(5)), 129, 5, MetricDotProduct, 4)
	if s, _ := bruteGroups(c); s == nil {
		t.Fatal("case has no feasible group")
	}
	ar := &refineArena{owner: &arenaPool{}}
	var pairs atomic.Int64
	cg, comps := c.graph(ar)
	run := func() {
		g := ar.groups(cg, c.ut, c.p, c.uq, c.mUq, comps)
		if s, _ := g.enumerateGroups(math.Inf(1), &pairs, nil); s == nil {
			t.Fatal("no group")
		}
	}
	run() // warm: the arena's buffers grow
	if allocs := testing.AllocsPerRun(50, run); allocs != 1 {
		t.Errorf("warm group search allocates %.1f objects per run, want 1 (the returned group)", allocs)
	}
}

// BenchmarkGroupSearch times the group search alone on a generated
// dataset: the candidates, and the companions, are the issuer's
// γ-compatible users within τ-1 hops, reached through such users, and
// every user, the issuer included, costs its straight-line
// distance to one POI. The issuer is far from it, so many groups tie at
// the issuer's cost and the search must enumerate them all to find the
// lexicographically smallest (the τ=7 case scores 2.3M groups).
func BenchmarkGroupSearch(b *testing.B) {
	ds, err := gen.Synthetic(gen.Config{
		Name: "group-search", Seed: 9,
		RoadVertices: 200, SocialUsers: 3000, POIs: 20, Topics: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	const uq = socialnet.UserID(17)
	anchor := ds.POIs[0].Loc
	ut := newUserTopics(ds, nil)
	for _, tau := range []int{4, 5, 7} {
		p := Params{Gamma: 0.3, Tau: tau, Theta: 0, R: 1, Metric: MetricDotProduct}
		hops := ds.Social.BFSHopsBounded(uq, int32(tau-1))
		var cand []socialnet.UserID
		for u := range ds.Users {
			v := socialnet.UserID(u)
			if v != uq && hops[v] != socialnet.Unreachable &&
				Similarity(p.Metric, ds.Users[uq].Interests, ds.Users[v].Interests) >= p.Gamma {
				cand = append(cand, v)
			}
		}
		ar := &refineArena{owner: &arenaPool{}}
		cg := ar.candGraph(ds.Social, uq, cand)
		mOf := func(v socialnet.UserID) float64 { return anchor.Dist(ds.Users[v].Loc) }
		comps := slices.Clone(ar.companions(cg, ut, p, NewTopicSet(ds.NumTopics), mOf(uq), newSharedKeeper(1), mOf))
		b.Run(fmt.Sprintf("tau=%d/n=%d", tau, len(comps)), func(b *testing.B) {
			var pairs atomic.Int64
			for i := 0; i < b.N; i++ {
				g := ar.groups(cg, ut, p, uq, mOf(uq), comps)
				g.enumerateGroups(math.Inf(1), &pairs, nil)
			}
			b.ReportMetric(float64(pairs.Load())/float64(b.N), "groups/op")
		})
	}
}
