package core

import (
	"math"
	"math/bits"

	"gpssn/internal/socialnet"
)

// candGraph is the friendship graph induced on one query's candidate users
// (the traversal's survivors within τ-1 hops of u_q). A candidate is known
// by its ordinal, its rank in ascending id order; row o of the CSR (off,
// adj) lists the ordinals of candidate o's candidate friends, and uq lists
// u_q's. Built once per query in the query arena and only read afterwards,
// so refinement's workers share it.
type candGraph struct {
	ids []socialnet.UserID // ordinal → user, ascending
	off []int32            // ordinal → start of its row in adj; n+1 entries
	adj []int32
	uq  []int32

	// Membership by user id: a bitset over every user, and per word the
	// number of candidates in the words before it.
	member []uint64
	rank   []int32
}

// ord returns u's ordinal, or -1 when u is not a candidate.
func (cg *candGraph) ord(u socialnet.UserID) int32 {
	k, b := u>>6, uint(u&63)
	wd := cg.member[k]
	if wd&(1<<b) == 0 {
		return -1
	}
	return cg.rank[k] + int32(bits.OnesCount64(wd&(1<<b-1)))
}

// candGraph builds the graph over cand (ascending, distinct, without u_q)
// in the arena's candGraph and returns it, valid until the next candGraph
// call on the same arena.
func (a *refineArena) candGraph(g *socialnet.Graph, uq socialnet.UserID, cand []socialnet.UserID) *candGraph {
	cg := &a.cg
	cg.ids = cand
	words := (g.NumUsers() + 63) >> 6
	cg.member = grow(a, cg.member, words, 8)
	clear(cg.member)
	for _, u := range cand {
		cg.member[u>>6] |= 1 << (u & 63)
	}
	cg.rank = grow(a, cg.rank, words, 4)
	n := int32(0)
	for k, wd := range cg.member {
		cg.rank[k] = n
		n += int32(bits.OnesCount64(wd))
	}
	before := cap(cg.adj) + cap(cg.uq)
	cg.off = grow(a, cg.off, len(cand)+1, 4)
	cg.adj = cg.adj[:0]
	for i, u := range cand {
		cg.off[i] = int32(len(cg.adj))
		for _, f := range g.Friends(u) {
			if o := cg.ord(f); o >= 0 {
				cg.adj = append(cg.adj, o)
			}
		}
	}
	cg.off[len(cand)] = int32(len(cg.adj))
	cg.uq = cg.uq[:0]
	for _, f := range g.Friends(uq) {
		if o := cg.ord(f); o >= 0 {
			cg.uq = append(cg.uq, o)
		}
	}
	if d := cap(cg.adj) + cap(cg.uq) - before; d > 0 {
		a.account(int64(d) * 4)
	}
	return cg
}

// friends returns candidate o's row.
func (cg *candGraph) friends(o int32) []int32 {
	return cg.adj[cg.off[o]:cg.off[o+1]]
}

// companions returns the candidates that may sit in a group with u_q that
// survives the keeper on a ball of keyword set kws, in the order a
// breadth-first search from u_q within τ-1 hops first reaches them, each
// with its M(u). The search tests each candidate once, on first reach: it
// must θ-match the ball, then eval(u) (M(u), or +Inf when the pivot test
// rules u out first) must be finite with max(M(u), M(u_q)) ≤ the keeper's
// bound. Only the users that pass are kept and expanded.
//
// This is exact. Every member of a group that survives the keeper
// θ-matches the ball, is a candidate and passes the pivot test and
// M(u) ≤ bound; the bound only falls, so a user that failed at the bound
// it read fails every later one. The group is connected, so each member
// is joined to u_q by a path inside it of at most τ-1 edges whose users
// all pass: the search reaches every member. The group search grows
// groups from u_q through friend rows among the returned users only
// (groups.go), and every partial group it builds is such a connected set,
// so a user reached only through a failed one would never have entered
// it. The list is the arena's companion buffer, valid until the next
// companions call on the same arena.
func (a *refineArena) companions(cg *candGraph, ut *userTopics, p Params, kws TopicSet, mUq float64, keeper *sharedKeeper, eval func(socialnet.UserID) float64) []anchorComp {
	a.seen = grow(a, a.seen, (len(cg.ids)+63)>>6, 8)
	clear(a.seen)
	comps := a.comps[:0]
	reach := func(row []int32) {
		for _, o := range row {
			k, b := o>>6, uint(o&63)
			if a.seen[k]&(1<<b) != 0 {
				continue
			}
			a.seen[k] |= 1 << b
			u := cg.ids[o]
			if ut.user(u).match(kws) < p.Theta {
				continue
			}
			// Strict, as everywhere against the keeper: a cost equal to
			// the bound may still win the tie-break.
			m := eval(u)
			if math.IsInf(m, 1) || math.Max(m, mUq) > keeper.Bound() {
				continue
			}
			comps = append(comps, anchorComp{u: u, o: o, m: m})
		}
	}
	reach(cg.uq)
	// comps[lo:] is the level at depth d; its friends are at depth d+1.
	for d, lo := 1, 0; d < p.Tau-1 && lo < len(comps); d++ {
		hi := len(comps)
		for i := lo; i < hi; i++ {
			reach(cg.friends(comps[i].o))
		}
		lo = hi
	}
	a.comps = kept(a, a.comps, comps, anchorCompSize)
	return comps
}
