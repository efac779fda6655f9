package core

import (
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

// companions returns, in ascending ordinal order, the candidates that may
// sit in a feasible group with u_q on a ball of keyword set kws: those a
// breadth-first search from u_q reaches within τ-1 hops through
// candidates that θ-match the ball, each θ-tested the first time the
// search reaches it. Every member of a feasible group S θ-matches the ball
// and is a candidate, and S is connected, so each member is joined to u_q
// by a path inside S of at most τ-1 edges whose users all pass those same
// tests: the search reaches every member. The list is arena memory, valid
// until the next companions call on the same arena.
func (a *refineArena) companions(cg *candGraph, ut *userTopics, p Params, kws TopicSet) []int32 {
	n := len(cg.ids)
	w := (n + 63) >> 6
	a.seen = grow(a, a.seen, 2*w, 8)
	clear(a.seen)
	visited, failed := a.seen[:w], a.seen[w:]
	a.queue = grow(a, a.queue, n, 4)
	q := a.queue[:0]
	reach := func(row []int32) {
		for _, o := range row {
			k, b := o>>6, uint(o&63)
			if (visited[k]|failed[k])&(1<<b) != 0 {
				continue
			}
			if ut.user(cg.ids[o]).match(kws) < p.Theta {
				failed[k] |= 1 << b
				continue
			}
			visited[k] |= 1 << b
			q = append(q, o)
		}
	}
	reach(cg.uq)
	// q[lo:] is the level at depth d; its friends are at depth d+1.
	for d, lo := 1, 0; d < p.Tau-1 && lo < len(q); d++ {
		hi := len(q)
		for _, o := range q[lo:hi] {
			reach(cg.friends(o))
		}
		lo = hi
	}
	// Re-read the visited set as the ascending list, over the queue.
	q = q[:0]
	for k, wd := range visited {
		for ; wd != 0; wd &= wd - 1 {
			q = append(q, int32(k<<6|bits.TrailingZeros64(wd)))
		}
	}
	return q
}
