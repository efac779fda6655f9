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
// (failing it). Besides random friendships among u_q and the n candidates
// it plants, each on users of its own:
//   - a chain of θ-matching candidates from u_q, τ long, so its users sit
//     exactly 1..τ hops away and only the first τ-1 are companions;
//   - a θ-failing candidate friend of u_q whose θ-matching candidate
//     friend is reachable only through it;
//   - a θ-matching non-candidate friend of u_q whose θ-matching candidate
//     friend is reachable only through it.
type companionCase struct {
	g        *socialnet.Graph
	ut       *userTopics
	p        Params
	cand     []socialnet.UserID
	in, out  []socialnet.UserID // planted users that must and must not be companions
	matching map[socialnet.UserID]bool
}

func randomCompanionCase(rng *rand.Rand, n, tau int, degree float64) companionCase {
	const uq = 0
	var users []model.User
	matching := map[socialnet.UserID]bool{}
	isCand := map[socialnet.UserID]bool{}
	add := func(match, cand bool) socialnet.UserID {
		u := socialnet.UserID(len(users))
		w := 0.2
		if match {
			w = 0.8
			matching[u] = true
		}
		users = append(users, model.User{ID: u, Interests: []float64{w}})
		isCand[u] = cand
		return u
	}
	add(true, false) // u_q
	for i := 0; i < n; i++ {
		add(rng.Intn(3) > 0, true)
	}
	// Non-candidates in the random part, so its paths can leave the
	// candidates too.
	for i := 0; i < n/4; i++ {
		add(rng.Intn(2) == 0, false)
	}
	random := len(users)
	var edges [][2]socialnet.UserID
	for i := 0; i < int(degree*float64(random)/2); i++ {
		edges = append(edges, [2]socialnet.UserID{socialnet.UserID(rng.Intn(random)), socialnet.UserID(rng.Intn(random))})
	}
	var in, out []socialnet.UserID
	prev := socialnet.UserID(uq)
	for d := 1; d <= tau; d++ {
		u := add(true, true)
		edges = append(edges, [2]socialnet.UserID{prev, u})
		if d <= tau-1 {
			in = append(in, u)
		} else {
			out = append(out, u)
		}
		prev = u
	}
	for _, gate := range []socialnet.UserID{add(false, true), add(true, false)} {
		behind := add(true, true)
		edges = append(edges, [2]socialnet.UserID{uq, gate}, [2]socialnet.UserID{gate, behind})
		out = append(out, behind)
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
	c := companionCase{matching: map[socialnet.UserID]bool{}}
	for u, usr := range users {
		v := id(socialnet.UserID(u))
		usr.ID = v
		shuffled[v] = usr
		c.matching[v] = matching[socialnet.UserID(u)]
		if isCand[socialnet.UserID(u)] {
			c.cand = append(c.cand, v)
		}
	}
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

// bruteCompanions is the reference: the fewest hops from u_q to every
// user along paths whose users after u_q are all θ-matching candidates,
// by τ-1 rounds of relaxing every friendship, and the users within τ-1.
func bruteCompanions(c companionCase) []socialnet.UserID {
	ok := map[socialnet.UserID]bool{}
	for _, u := range c.cand {
		ok[u] = c.matching[u]
	}
	hops := map[socialnet.UserID]int{0: 0}
	for round := 1; round < c.p.Tau; round++ {
		next := map[socialnet.UserID]int{}
		for u, h := range hops {
			next[u] = h
		}
		for u, h := range hops {
			for _, f := range c.g.Friends(u) {
				if _, seen := next[f]; ok[f] && !seen {
					next[f] = h + 1
				}
			}
		}
		hops = next
	}
	var out []socialnet.UserID
	for u, h := range hops {
		if u != 0 && h <= c.p.Tau-1 {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return out
}

// TestCompanionsMatchBruteForce checks the companion search against the
// relaxation reference on random graphs with planted users at exactly τ-1
// and τ hops and behind θ-failing and non-candidate gates, over τ 2..6 and
// candidate counts on both sides of 64 and 128. One arena serves every
// case, so scratch left by a larger earlier case would show.
func TestCompanionsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ar := &refineArena{owner: &arenaPool{}}
	kws := NewTopicSet(1)
	kws.Add(0)
	for _, n := range []int{0, 5, 63, 64, 65, 127, 128, 129} {
		for tau := 2; tau <= 6; tau++ {
			for rep := 0; rep < 3; rep++ {
				name := fmt.Sprintf("n=%d τ=%d rep %d", n, tau, rep)
				c := randomCompanionCase(rng, n, tau, 1+2*rng.Float64())
				cg := ar.candGraph(c.g, 0, c.cand)
				var got []socialnet.UserID
				for _, o := range ar.companions(cg, c.ut, c.p, kws) {
					got = append(got, cg.ids[o])
				}
				want := bruteCompanions(c)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: companions %v, want %v", name, got, want)
				}
				for _, u := range c.in {
					if !slices.Contains(got, u) {
						t.Fatalf("%s: θ-matching candidate %d within τ-1 hops is missing", name, u)
					}
				}
				for _, u := range c.out {
					if slices.Contains(got, u) {
						t.Fatalf("%s: %d is a companion, but sits τ hops away or behind a gate", name, u)
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
