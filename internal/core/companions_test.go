package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/socialnet"
)

// companionCase is one random companion-search input. Every user holds
// topic 0 only, at weight 0.8 (θ-matching the ball {0} at θ = 0.5) or 0.2
// (failing it), and has a group cost M(u) against a keeper bound (+Inf in
// some cases: no incumbent): below it, exactly at it, above it, +Inf, or
// pivot-pruned (the gate rules it out before evaluating it). Besides
// random friendships among u_q and the n candidates it plants, each on
// users of its own:
//   - a chain of passing candidates from u_q, τ long, so its users sit
//     exactly 1..τ hops away and only the first τ-1 are companions;
//   - a passing candidate friend of u_q whose M(u) equals the bound, with
//     a passing candidate friend behind it: kept and expanded, so the one
//     behind is a companion when τ ≥ 3;
//   - gates: a θ-failing candidate, a θ-matching non-candidate, a
//     too-costly candidate, one with M(u) = +Inf and a pivot-pruned one,
//     each a friend of u_q with a passing candidate friend reachable
//     only through it.
type companionCase struct {
	g        *socialnet.Graph
	ut       *userTopics
	p        Params
	cand     []socialnet.UserID
	in, out  []socialnet.UserID // planted users that must and must not be companions
	matching map[socialnet.UserID]bool
	m        map[socialnet.UserID]float64 // M(u)
	pivot    map[socialnet.UserID]bool    // ruled out by the pivot test
	mUq      float64
	bound    float64
}

// Cost classes of the random users.
const (
	costBelow = iota
	costAtBound
	costAbove
	costInf
	costPivot
	costClasses
)

func randomCompanionCase(rng *rand.Rand, n, tau int, degree float64) companionCase {
	const uq = 0
	bound := 1 + rng.Float64()
	if rng.Intn(4) == 0 {
		bound = math.Inf(1)
	}
	var users []model.User
	matching := map[socialnet.UserID]bool{}
	isCand := map[socialnet.UserID]bool{}
	cost := map[socialnet.UserID]float64{}
	pivot := map[socialnet.UserID]bool{}
	add := func(match, cand bool, class int) socialnet.UserID {
		u := socialnet.UserID(len(users))
		w := 0.2
		if match {
			w = 0.8
			matching[u] = true
		}
		users = append(users, model.User{ID: u, Interests: []float64{w}})
		isCand[u] = cand
		finite := bound
		if math.IsInf(bound, 1) {
			finite = 2
		}
		switch class {
		case costBelow:
			cost[u] = rng.Float64() * finite
		case costAtBound:
			cost[u] = finite
		case costAbove:
			cost[u] = finite + 1 + rng.Float64()
		case costInf:
			cost[u] = math.Inf(1)
		case costPivot:
			cost[u] = rng.Float64() * finite
			pivot[u] = true
		}
		return u
	}
	randomClass := func() int {
		if rng.Intn(2) == 0 {
			return costBelow
		}
		return rng.Intn(costClasses)
	}
	add(true, false, costBelow) // u_q
	for i := 0; i < n; i++ {
		add(rng.Intn(3) > 0, true, randomClass())
	}
	// Non-candidates in the random part, so its paths can leave the
	// candidates too.
	for i := 0; i < n/4; i++ {
		add(rng.Intn(2) == 0, false, randomClass())
	}
	random := len(users)
	var edges [][2]socialnet.UserID
	for i := 0; i < int(degree*float64(random)/2); i++ {
		edges = append(edges, [2]socialnet.UserID{socialnet.UserID(rng.Intn(random)), socialnet.UserID(rng.Intn(random))})
	}
	var in, out []socialnet.UserID
	prev := socialnet.UserID(uq)
	for d := 1; d <= tau; d++ {
		u := add(true, true, costBelow)
		edges = append(edges, [2]socialnet.UserID{prev, u})
		if d <= tau-1 {
			in = append(in, u)
		} else {
			out = append(out, u)
		}
		prev = u
	}
	tie, behindTie := add(true, true, costAtBound), add(true, true, costBelow)
	edges = append(edges, [2]socialnet.UserID{uq, tie}, [2]socialnet.UserID{tie, behindTie})
	in = append(in, tie)
	if tau >= 3 {
		in = append(in, behindTie)
	} else {
		out = append(out, behindTie)
	}
	gates := []socialnet.UserID{add(false, true, costBelow), add(true, false, costBelow),
		add(true, true, costInf), add(true, true, costPivot)}
	if !math.IsInf(bound, 1) {
		gates = append(gates, add(true, true, costAbove))
	}
	for _, gate := range gates {
		behind := add(true, true, costBelow)
		edges = append(edges, [2]socialnet.UserID{uq, gate}, [2]socialnet.UserID{gate, behind})
		out = append(out, gate, behind)
	}
	// Shuffle the ids so planted users spread over the ordinals.
	perm := rng.Perm(len(users) - 1)
	id := func(u socialnet.UserID) socialnet.UserID {
		if u == uq {
			return uq
		}
		return socialnet.UserID(perm[u-1] + 1)
	}
	shuffled := make([]model.User, len(users))
	c := companionCase{
		matching: map[socialnet.UserID]bool{},
		m:        map[socialnet.UserID]float64{},
		pivot:    map[socialnet.UserID]bool{},
		bound:    bound,
	}
	for u, usr := range users {
		old, v := socialnet.UserID(u), id(socialnet.UserID(u))
		usr.ID = v
		shuffled[v] = usr
		c.matching[v], c.m[v], c.pivot[v] = matching[old], cost[old], pivot[old]
		if isCand[old] {
			c.cand = append(c.cand, v)
		}
	}
	c.mUq = c.m[uq]
	slices.Sort(c.cand)
	c.g = socialnet.NewGraph(len(users))
	for _, e := range edges {
		c.g.AddFriendship(id(e[0]), id(e[1]))
	}
	for _, u := range in {
		c.in = append(c.in, id(u))
	}
	for _, u := range out {
		c.out = append(c.out, id(u))
	}
	ds := &model.Dataset{Social: c.g, Users: shuffled, NumTopics: 1}
	c.ut = newUserTopics(ds, nil)
	c.p = Params{Tau: tau, Theta: 0.5}
	return c
}

// passes is the reference gate: a θ-matching candidate whose pivot test
// passes and whose cost, with u_q's, is finite and at most the bound.
func (c companionCase) passes(u socialnet.UserID, isCand bool) bool {
	return isCand && c.matching[u] && !c.pivot[u] && !math.IsInf(c.m[u], 1) &&
		math.Max(c.m[u], c.mUq) <= c.bound
}

// bruteCompanions is the reference: the fewest hops from u_q to every
// user along paths whose users after u_q all pass the gate, by τ-1
// rounds of relaxing every friendship, and the users within τ-1. It also
// returns the users the search must evaluate: those that θ-match, are
// candidates, pass the pivot test and are friends of u_q or of a
// companion short of depth τ-1.
func bruteCompanions(c companionCase) (comps, evaluated []socialnet.UserID) {
	isCand := map[socialnet.UserID]bool{}
	for _, u := range c.cand {
		isCand[u] = true
	}
	hops := map[socialnet.UserID]int{0: 0}
	for round := 1; round < c.p.Tau; round++ {
		next := map[socialnet.UserID]int{}
		for u, h := range hops {
			next[u] = h
		}
		for u, h := range hops {
			for _, f := range c.g.Friends(u) {
				if _, seen := next[f]; c.passes(f, isCand[f]) && !seen {
					next[f] = h + 1
				}
			}
		}
		hops = next
	}
	tried := map[socialnet.UserID]bool{}
	for u, h := range hops {
		if u != 0 {
			comps = append(comps, u)
		}
		if h >= c.p.Tau-1 {
			continue
		}
		for _, f := range c.g.Friends(u) {
			if f != 0 && isCand[f] && c.matching[f] && !c.pivot[f] && !tried[f] {
				tried[f] = true
				evaluated = append(evaluated, f)
			}
		}
	}
	slices.Sort(comps)
	slices.Sort(evaluated)
	return comps, evaluated
}

// TestCompanionsMatchBruteForce checks the gated companion search against
// the relaxation reference on random graphs with planted users at exactly
// τ-1 and τ hops, exactly at the bound, and behind θ-failing,
// non-candidate, too-costly, unreachable (+Inf) and pivot-pruned gates,
// over τ 2..6 and candidate counts on both sides of 64 and 128. Each
// companion must carry its M(u), and the search must evaluate exactly the
// users the reference says, each once. One arena serves every case, so
// scratch left by a larger earlier case would show.
func TestCompanionsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ar := &refineArena{owner: &arenaPool{}}
	kws := NewTopicSet(1)
	kws.Add(0)
	for _, n := range []int{0, 5, 63, 64, 65, 127, 128, 129} {
		for tau := 2; tau <= 6; tau++ {
			for rep := 0; rep < 3; rep++ {
				c := randomCompanionCase(rng, n, tau, 1+2*rng.Float64())
				name := fmt.Sprintf("n=%d τ=%d rep %d bound %v", n, tau, rep, c.bound)
				keeper := newSharedKeeper(1)
				if !math.IsInf(c.bound, 1) {
					keeper.add(Result{Found: true, MaxDist: c.bound})
				}
				cg := ar.candGraph(c.g, 0, c.cand)
				var evaluated []socialnet.UserID
				eval := func(u socialnet.UserID) float64 {
					if c.pivot[u] {
						return math.Inf(1)
					}
					evaluated = append(evaluated, u)
					return c.m[u]
				}
				var got []socialnet.UserID
				for _, comp := range ar.companions(cg, c.ut, c.p, kws, c.mUq, keeper, eval) {
					if comp.u != cg.ids[comp.o] || comp.m != c.m[comp.u] {
						t.Fatalf("%s: companion %+v, want ordinal %d and M(u) %v", name, comp, cg.ord(comp.u), c.m[comp.u])
					}
					got = append(got, comp.u)
				}
				slices.Sort(got)
				slices.Sort(evaluated)
				want, wantEvals := bruteCompanions(c)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: companions %v, want %v", name, got, want)
				}
				if !slices.Equal(evaluated, wantEvals) {
					t.Fatalf("%s: evaluated %v, want %v", name, evaluated, wantEvals)
				}
				for _, u := range c.in {
					if !slices.Contains(got, u) {
						t.Fatalf("%s: passing candidate %d within τ-1 hops is missing", name, u)
					}
				}
				for _, u := range c.out {
					if slices.Contains(got, u) {
						t.Fatalf("%s: %d is a companion, but sits τ hops away, fails the gate or sits behind a failing user", name, u)
					}
				}
			}
		}
	}
}

// TestCompanionsBeyondDepthMatchBaseline runs the engine against Baseline
// where a θ-matching candidate is a friend of a friend of u_q, but only
// through a user that fails u_q's interest test: through candidates it
// sits τ hops away. The companion search must leave it out and still find
// the group the candidates do form.
func TestCompanionsBeyondDepthMatchBaseline(t *testing.T) {
	ds := smallDataset(t, 5)
	like := []float64{0.6, 0.6, 0.53, 0, 0, 0}
	unlike := []float64{0, 0, 0, 0.6, 0.6, 0.53}
	for i := range ds.Users {
		ds.Users[i].Interests = like
	}
	// u_q = 0 – a = 1 – b = 2 – x = 3, and 0 – n = 4 – 3 with n unlike.
	const uq, n, x = 0, 4, 3
	ds.Users[n].Interests = unlike
	ds.Social = socialnet.NewGraph(len(ds.Users))
	for _, e := range [][2]socialnet.UserID{{uq, 1}, {1, 2}, {2, x}, {uq, n}, {n, x}} {
		ds.Social.AddFriendship(e[0], e[1])
	}
	e := buildEngine(t, ds, Options{})
	oracle := &Baseline{DS: ds}
	for _, r := range []float64{1, 2, 3} {
		p := Params{Gamma: 0.5, Tau: 3, Theta: 0.2, R: r}
		got, st, err := e.Query(uq, p)
		if err != nil {
			t.Fatal(err)
		}
		if st.CandUsers != 3 {
			t.Fatalf("r=%v: %d candidates, want a, b and x", r, st.CandUsers)
		}
		want, _ := oracle.Query(uq, p)
		if !want.Found {
			t.Fatalf("r=%v: Baseline finds no group; the case no longer exercises the search", r)
		}
		if !got.Found || got.MaxDist != want.MaxDist || !slices.Equal(got.S, want.S) || math.IsInf(got.MaxDist, 1) {
			t.Fatalf("r=%v: engine %v at %v, Baseline %v at %v", r, got.S, got.MaxDist, want.S, want.MaxDist)
		}
	}
}

// TestNoIncumbentRefineMatchesBaseline runs refinement without the probe,
// so the keeper starts at +Inf and each anchor's greedy seed runs before
// its companion search, on random small datasets over τ 2..5 at
// Parallelism 1 and 4. Rank by rank, top-1 and top-3 must match Baseline's
// costs and be the engine's own answers with the probe.
func TestNoIncumbentRefineMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	found, reps := 0, 6
	if testing.Short() {
		reps = 2
	}
	for rep := 0; rep < reps; rep++ {
		ds := smallDataset(t, 460+int64(rep))
		oracle := &Baseline{DS: ds}
		engines := []*Engine{buildEngine(t, ds, Options{Parallelism: 1}), buildEngine(t, ds, Options{Parallelism: 4})}
		for tau := 2; tau <= 5; tau++ {
			p := Params{Gamma: 0.1 + 0.2*rng.Float64(), Tau: tau, Theta: 0.1 + 0.3*rng.Float64(), R: 1 + 2*rng.Float64(), Metric: MetricDotProduct}
			uq := socialnet.UserID(rng.Intn(len(ds.Users)))
			top3, _ := oracle.QueryTopK(uq, p, 3)
			for _, k := range []int{1, 3} {
				want := top3[:min(k, len(top3))]
				for _, e := range engines {
					name := fmt.Sprintf("rep %d τ=%d uq %d k=%d P=%d", rep, tau, uq, k, e.Opts.Parallelism)
					var st Stats
					q := e.newQctx(&st)
					ar, rar := e.acquireArena(), e.acquireArena()
					e.socialHalf(uq, p, q, ar, nil)
					got := e.refine(uq, p, ar, newSharedKeeper(k), e.newAnchorOrder(uq, p, q, rar), q)
					e.releaseArena(ar)
					e.releaseArena(rar)
					if len(got) != len(want) {
						t.Fatalf("%s: %d results, Baseline %d", name, len(got), len(want))
					}
					for i := range got {
						if math.Abs(got[i].MaxDist-want[i].MaxDist) > 1e-6 {
							t.Fatalf("%s: rank %d cost %v, Baseline %v", name, i, got[i].MaxDist, want[i].MaxDist)
						}
						checkFeasible(t, ds, uq, p, got[i])
					}
					withProbe, _, err := e.QueryTopK(uq, p, k)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(got, withProbe, func(a, b Result) bool {
						return a.MaxDist == b.MaxDist && a.Anchor == b.Anchor && slices.Equal(a.S, b.S) && slices.Equal(a.R, b.R)
					}) {
						t.Fatalf("%s: without an incumbent %+v, with the probe %+v", name, got, withProbe)
					}
					found += len(got)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no query found a group; the test checks nothing")
	}
	t.Logf("%d results checked", found)
}
