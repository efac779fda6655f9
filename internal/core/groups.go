package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// lexLessUsers compares two sorted user groups lexicographically.
func lexLessUsers(a, b []socialnet.UserID) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// sortedUsers returns a sorted copy of a user group (the canonical form
// results carry).
func sortedUsers(s []socialnet.UserID) []socialnet.UserID {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// greedyGroup grows one feasible connected τ-group from u_q on the given
// ball, picking the cheapest eligible friend at each step (the same greedy
// the probe uses, against an arbitrary anchor). Returns ok=false when no
// group completes within the evaluation cap. It reads the whole social
// graph, not a candGraph: the probe runs it before any candidate exists.
func (e *Engine) greedyGroup(uq socialnet.UserID, p Params, ball []model.POIID, kws TopicSet, mUq float64, mOf func(socialnet.UserID) float64) ([]socialnet.UserID, float64, bool) {
	ds, ut := e.DS, e.topics
	cur := []socialnet.UserID{uq}
	curMax := mUq
	evals := 0
	for len(cur) < p.Tau {
		var bestU socialnet.UserID = -1
		bestM := math.Inf(1)
		checked := 0
		for _, u := range cur {
			for _, v := range ds.Social.Friends(u) {
				if checked >= 16 || slices.Contains(cur, v) {
					continue
				}
				vRow := ut.user(v)
				compatible := true
				for _, w := range cur {
					if ut.similarity(p.Metric, ut.user(w), vRow) < p.Gamma {
						compatible = false
						break
					}
				}
				if !compatible || vRow.match(kws) < p.Theta {
					continue
				}
				checked++
				evals++
				if m := mOf(v); m < bestM {
					bestM, bestU = m, v
				}
			}
		}
		if bestU < 0 || evals > 16*p.Tau {
			return nil, 0, false
		}
		cur = append(cur, bestU)
		if bestM > curMax {
			curMax = bestM
		}
	}
	return cur, curMax, true
}

// groupSearch is one anchor's exact group search (Algorithm 2, lines
// 29–31): the cheapest connected, pairwise-γ-compatible τ-group that
// contains u_q, drawn from the anchor's eligible companions. It lives in
// the worker's arena and is re-indexed per anchor (refineArena.groups), so
// a warm search allocates nothing but the group it returns.
//
// The companions get dense ordinals 0..n-1 in ascending (M(u), id) order,
// so a set of companions is a bitset of w = ⌈n/64⌉ words and walking its
// set bits walks the set cheapest first. A companion owns two rows of w
// words, each filled the first time it is needed: its friends among the
// companions (read from the query's candGraph), and the companions it is
// γ-compatible with. A search that touches three users pays for three
// rows.
type groupSearch struct {
	ar  *refineArena
	cg  *candGraph
	ut  *userTopics
	p   Params
	uq  socialnet.UserID
	mUq float64
	n   int // companions
	w   int // words per row

	ids       []socialnet.UserID // ordinal → user
	cgo       []int32            // ordinal → the user's candGraph ordinal
	pos       []int32            // candGraph ordinal → ordinal+1, 0 for a non-companion
	trow      []int32            // ordinal → the user's topic-table row
	ms        []float64          // ordinal → M(user), ascending
	friendRow []int32            // ordinal → offset of its friend row in rows, -1 until filled
	compatRow []int32            // ordinal → offset of its compatibility row in rows, -1 until filled
	rows      []uint64           // the filled rows, w words each
	uqRow     []uint64           // u_q's friends among the companions
	levels    []uint64           // 3w words per recursion depth: ext, excl, mask
	grp       []socialnet.UserID // u_q and the partial group's members, ascending id
	best      []socialnet.UserID // the incumbent group, ascending id

	// Per-enumeration state.
	curMax, bestCost float64
	found            bool
	expansions       int
	leaves           int64
	ck               *roadnet.Checkpoint
}

// groups re-indexes one anchor's companions for the group search and
// returns the arena's search, valid until the next groups call on the
// same arena. comps is sorted in place into ordinal order; every
// companion must be a vertex of cg, have passed the similarity test
// against u_q and have a finite M(u).
func (a *refineArena) groups(cg *candGraph, ut *userTopics, p Params, uq socialnet.UserID, mUq float64, comps []anchorComp) *groupSearch {
	g := &a.gs
	// pos is only ever set at the previous call's companions: clearing
	// those (over the whole capacity, which the previous graph may have
	// used) leaves it all zero.
	full := g.pos[:cap(g.pos)]
	for _, o := range g.cgo[:g.n] {
		full[o] = 0
	}
	n := len(comps)
	w := (n + 63) >> 6
	g.ar, g.cg, g.ut, g.p, g.uq, g.mUq, g.n, g.w = a, cg, ut, p, uq, mUq, n, w
	slices.SortFunc(comps, func(x, y anchorComp) int {
		return cmp.Or(cmp.Compare(x.m, y.m), cmp.Compare(x.u, y.u))
	})
	g.ids = grow(a, g.ids, n, userIDSize)
	g.cgo = grow(a, g.cgo, n, 4)
	g.pos = grow(a, g.pos, len(cg.ids), 4)
	g.trow = grow(a, g.trow, n, 4)
	g.ms = grow(a, g.ms, n, 8)
	g.friendRow = grow(a, g.friendRow, n, 4)
	g.compatRow = grow(a, g.compatRow, n, 4)
	for i, c := range comps {
		g.ids[i], g.cgo[i], g.ms[i] = c.u, c.o, c.m
		g.pos[c.o] = int32(i) + 1
		g.trow[i] = int32(ut.rowOf(c.u))
		g.friendRow[i], g.compatRow[i] = -1, -1
	}
	g.rows = g.rows[:0]
	g.uqRow = grow(a, g.uqRow, w, 8)
	g.friendsInto(cg.uq, g.uqRow)
	g.levels = grow(a, g.levels, p.Tau*3*w, 8)
	g.grp = grow(a, g.grp, p.Tau, userIDSize)[:0]
	g.best = grow(a, g.best, p.Tau, userIDSize)[:0]
	return g
}

// friendsInto writes the companions among a candGraph row into row.
func (g *groupSearch) friendsInto(cgRow []int32, row []uint64) {
	clear(row)
	for _, f := range cgRow {
		if o := g.pos[f] - 1; o >= 0 {
			row[o>>6] |= 1 << (o & 63)
		}
	}
}

// newRow appends one zeroed row to the slab and returns its offset.
// Offsets, not slices, are what callers keep: the slab may move.
func (g *groupSearch) newRow() int32 {
	off := len(g.rows)
	before := cap(g.rows)
	g.rows = append(g.rows, make([]uint64, g.w)...)
	if d := cap(g.rows) - before; d > 0 {
		g.ar.account(int64(d) * 8)
	}
	return int32(off)
}

// friends returns the offset of companion v's friend row, filling it on
// first use.
func (g *groupSearch) friends(v int32) int {
	if g.friendRow[v] < 0 {
		off := g.newRow()
		g.friendsInto(g.cg.friends(g.cgo[v]), g.rows[off:int(off)+g.w])
		g.friendRow[v] = off
	}
	return int(g.friendRow[v])
}

// compatible returns the offset of companion v's γ-compatibility row,
// filling it on first use with the same similarity(member, candidate)
// test the rest of refinement applies. Bits are only computed for
// companions no costlier than the incumbent at fill time: the incumbent
// only tightens, and the search reads a candidate's bit only after
// checking its cost against the current incumbent, so the bits left clear
// are never read.
func (g *groupSearch) compatible(v int32) int {
	if g.compatRow[v] < 0 {
		off := g.newRow()
		row := g.rows[off : int(off)+g.w]
		ut := g.ut
		mw := ut.at(int(g.trow[v]))
		for j := 0; j < g.n && g.ms[j] <= g.bestCost; j++ {
			if ut.similarity(g.p.Metric, mw, ut.at(int(g.trow[j]))) < g.p.Gamma {
				continue
			}
			row[j>>6] |= 1 << (j & 63)
		}
		g.compatRow[v] = off
	}
	return int(g.compatRow[v])
}

// level returns the three rows of recursion depth d.
func (g *groupSearch) level(d int) (ext, excl, mask []uint64) {
	o := d * 3 * g.w
	return g.levels[o : o+g.w], g.levels[o+g.w : o+2*g.w], g.levels[o+2*g.w : o+3*g.w]
}

// enumerateGroups finds the connected τ-subset S containing u_q with
// pairwise similarity >= γ minimizing max M(u), by ESU-style enumeration of
// connected induced subgraphs with branch-and-bound on the incumbent. It
// returns (nil, +Inf) when no feasible group has cost <= bound. All
// pruning is strict and equal-cost groups are tie-broken to the
// lexicographically smallest sorted S, so the returned group is the
// anchor's canonical optimum — independent of the bound snapshot the
// caller passed (as long as it is >= the optimum) and hence of worker
// timing. The group is returned sorted, in the only memory the search
// allocates.
func (g *groupSearch) enumerateGroups(bound float64, pairs *atomic.Int64, ck *roadnet.Checkpoint) ([]socialnet.UserID, float64) {
	g.bestCost, g.found, g.expansions, g.leaves, g.ck = bound, false, 0, 0, ck
	g.curMax = g.mUq
	g.grp = append(g.grp[:0], g.uq)
	ext, excl, mask := g.level(0)
	copy(ext, g.uqRow)
	clear(excl)
	for k := range mask {
		mask[k] = ^uint64(0) // every companion is compatible with u_q
	}
	g.extend(0)
	pairs.Add(g.leaves)
	if !g.found {
		return nil, math.Inf(1)
	}
	return slices.Clone(g.best), g.bestCost
}

// extend is one level of the recursion. The partial group is grp, of cost
// curMax; depth d's rows hold ext (the companions that may extend it),
// excl (the companions excluded from this subtree: the parent's exclusions
// and every candidate this level has already tried) and mask (the
// companions compatible with every member). A chosen v hands its child
// ((ext after v) ∪ friends(v)) \ excl — ESU's extension set — and
// mask ∩ compatible(v).
func (g *groupSearch) extend(d int) {
	// Cancellation poll every 256 expansions: the enumeration is pure
	// CPU (no road searches), so without this a dense social ball could
	// delay a cancel by seconds. The partial best is discarded anyway —
	// a cancelled query returns an error, not a result.
	if g.expansions&255 == 0 && g.ck.Cancelled() {
		return
	}
	g.expansions++
	if g.curMax > g.bestCost {
		return // strictly worse than the incumbent: no extension helps
	}
	if len(g.grp) == g.p.Tau {
		g.score()
		return
	}
	w := g.w
	ext, excl, mask := g.level(d)
	cExt, cExcl, cMask := g.level(d + 1)
	for k := 0; k < w; k++ {
		for word := ext[k]; word != 0; word &= word - 1 {
			b := uint(bits.TrailingZeros64(word))
			v := int32(k<<6) + int32(b)
			m := g.ms[v]
			if m > g.bestCost {
				// Ordinals ascend in cost, so every later candidate is
				// strictly worse than the incumbent too.
				return
			}
			excl[k] |= 1 << b // tried: no sibling subtree may add v again
			if mask[k]&(1<<b) == 0 {
				continue // γ-incompatible with a member
			}
			fo, co := g.friends(v), g.compatible(v)
			friends, compat := g.rows[fo:fo+w], g.rows[co:co+w]
			for j := range cExt {
				x := friends[j]
				if j > k {
					x |= ext[j]
				} else if j == k {
					x |= ext[k] &^ (2<<b - 1)
				}
				cExt[j] = x &^ excl[j]
				cExcl[j] = excl[j]
				cMask[j] = mask[j] & compat[j]
			}
			oldMax := g.curMax
			if m > g.curMax {
				g.curMax = m
			}
			g.push(g.ids[v])
			g.extend(d + 1)
			g.remove(g.ids[v])
			g.curMax = oldMax
		}
	}
}

// score records a complete group: a strictly cheaper one replaces the
// incumbent, an equal-cost one only if its sorted members are
// lexicographically smaller, so the choice is order-independent.
func (g *groupSearch) score() {
	g.leaves++
	if g.curMax < g.bestCost || !g.found || lexLessUsers(g.grp, g.best) {
		g.bestCost, g.found = g.curMax, true
		g.best = append(g.best[:0], g.grp...)
	}
}

// push inserts u into the sorted partial group.
func (g *groupSearch) push(u socialnet.UserID) {
	i := len(g.grp)
	g.grp = append(g.grp, u)
	for ; i > 0 && g.grp[i-1] > u; i-- {
		g.grp[i] = g.grp[i-1]
	}
	g.grp[i] = u
}

// remove deletes u from the sorted partial group.
func (g *groupSearch) remove(u socialnet.UserID) {
	i := 0
	for g.grp[i] != u {
		i++
	}
	g.grp = append(g.grp[:i], g.grp[i+1:]...)
}
