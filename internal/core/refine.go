package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gpssn/internal/failpoint"
	"gpssn/internal/geo"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// probe searches for one feasible solution around the issuer's nearest
// anchor POIs by greedy connected group growth. Its cost, when found, is a
// sound upper bound on the optimum (it is the cost of an actual feasible
// pair), so it can seed δ and the refinement incumbent.
func (e *Engine) probe(uq socialnet.UserID, p Params, q *qctx) Result {
	best := Result{MaxDist: math.Inf(1)}
	ds := e.DS
	uqW := ds.Users[uq].Interests
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	const probeAnchors = 3
	nn := e.Road.Tree.Nearest(ds.Users[uq].Loc, probeAnchors)
	tried := map[model.POIID]bool{}
	tryAnchor := func(anchor model.POIID) {
		if tried[anchor] || q.ck.Stopped() {
			return
		}
		tried[anchor] = true
		ball := e.ballAround(anchor, p.R, q.ck)
		if q.ck.Stopped() {
			return // degenerate ball (see refine's processAnchor)
		}
		kws := ballKeywords(ds, ball, ar)
		if MatchScoreSet(uqW, kws) < p.Theta {
			return
		}
		mOf := e.makeMOf(ball, nil, q.ck, ar)
		mUq := mOf(uq)
		if mUq >= best.MaxDist {
			return
		}
		if cur, curMax, ok := e.greedyGroup(uq, p, ball, kws, mUq, mOf); ok && curMax < best.MaxDist {
			r := append([]model.POIID(nil), ball...)
			sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
			best = Result{Found: true, S: sortedUsers(cur), R: r, Anchor: anchor, MaxDist: curMax}
		}
	}
	for _, nb := range nn {
		tryAnchor(model.POIID(nb.Item.ID))
	}
	// Second round: anchors near the found group's centroid usually beat
	// anchors near the issuer alone, and a tighter incumbent is the main
	// lever on δ-pruning.
	if best.Found {
		var cx, cy float64
		for _, u := range best.S {
			cx += ds.Users[u].Loc.X
			cy += ds.Users[u].Loc.Y
		}
		n := float64(len(best.S))
		for _, nb := range e.Road.Tree.Nearest(geo.Pt(cx/n, cy/n), probeAnchors) {
			tryAnchor(model.POIID(nb.Item.ID))
		}
	}
	return best
}

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
	out := append([]socialnet.UserID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resultLess is the canonical total order on results: cost first, then
// anchor id, then the lexicographically smallest sorted user group (r.S is
// always sorted before reaching the keeper). Having no arrival-order
// component is what makes refinement's answers independent of the order
// in which workers report them.
func resultLess(a, b Result) bool {
	if a.MaxDist != b.MaxDist {
		return a.MaxDist < b.MaxDist
	}
	if a.Anchor != b.Anchor {
		return a.Anchor < b.Anchor
	}
	return lexLessUsers(a.S, b.S)
}

// resultKeeper holds the k canonically-best results so far, in resultLess
// order, with distinct anchors. Not safe for concurrent use on its own;
// refinement workers go through sharedKeeper.
type resultKeeper struct {
	k     int
	items []Result
}

// bound returns the current pruning bound: the k-th best cost, or +Inf
// while fewer than k results are known.
func (rk *resultKeeper) bound() float64 {
	if len(rk.items) < rk.k {
		return math.Inf(1)
	}
	return rk.items[len(rk.items)-1].MaxDist
}

// add inserts r, deduplicating by anchor (keeping the canonically better
// result) and trimming to k.
func (rk *resultKeeper) add(r Result) {
	for i := range rk.items {
		if rk.items[i].Anchor == r.Anchor {
			if resultLess(r, rk.items[i]) {
				rk.items = append(rk.items[:i], rk.items[i+1:]...)
				break
			}
			return
		}
	}
	pos := len(rk.items)
	for pos > 0 && resultLess(r, rk.items[pos-1]) {
		pos--
	}
	rk.items = append(rk.items, Result{})
	copy(rk.items[pos+1:], rk.items[pos:])
	rk.items[pos] = r
	if len(rk.items) > rk.k {
		rk.items = rk.items[:rk.k]
	}
}

// sharedKeeper is the concurrent wrapper refinement workers share: the
// result list is mutex-guarded, and the pruning bound is additionally
// published through an atomic so the hot pruning checks never contend on
// the mutex. The bound is monotone non-increasing, so a stale read can
// only under-prune (wasted work), never over-prune (a lost answer) — the
// soundness argument in docs/CONCURRENCY.md.
type sharedKeeper struct {
	mu    sync.Mutex
	rk    resultKeeper
	bound atomic.Uint64 // math.Float64bits of the k-th best cost
}

func newSharedKeeper(k int) *sharedKeeper {
	sk := &sharedKeeper{rk: resultKeeper{k: k}}
	sk.bound.Store(math.Float64bits(math.Inf(1)))
	return sk
}

// Bound returns the published pruning bound. Lock-free.
func (sk *sharedKeeper) Bound() float64 {
	return math.Float64frombits(sk.bound.Load())
}

// add inserts a result and tightens the published bound via a
// compare-and-swap loop that only ever lowers it, so racing publishers
// cannot move the bound backwards.
func (sk *sharedKeeper) add(r Result) {
	sk.mu.Lock()
	sk.rk.add(r)
	b := sk.rk.bound()
	sk.mu.Unlock()
	for {
		old := sk.bound.Load()
		if math.Float64frombits(old) <= b {
			return
		}
		if sk.bound.CompareAndSwap(old, math.Float64bits(b)) {
			return
		}
	}
}

// userLabelWith returns u's attachment hub label through the shared
// label memo, computing it on a miss (memo disabled or full) into the
// arena's reusable label scratch — no pool traffic at all. Only call under
// a label oracle. The returned label is read-only and valid until the next
// userLabelWith call on the same arena, which is exactly the one-user-at-
// a-time lifetime the evaluation loop needs.
func (e *Engine) userLabelWith(u socialnet.UserID, ar *refineArena) *roadnet.HubLabel {
	if l, ok := e.sharedUserLabel(u); ok {
		return l
	}
	l := ar.label()
	before := cap(l.Hubs)
	e.DS.Road.AttachLabel(e.DS.Users[u].At, l)
	ar.labelGrew(before)
	return l
}

// ballKeywords collects the union of a ball's POI keywords into the
// arena's reusable bitset. The set is valid until the next ballKeywords
// call on the same arena (one anchor at a time).
func ballKeywords(ds *model.Dataset, ball []model.POIID, ar *refineArena) TopicSet {
	kws := ar.keywords(ds.NumTopics)
	for _, o := range ball {
		for _, k := range ds.POIs[o].Keywords {
			kws.Add(k)
		}
	}
	return kws
}

// makeMOf builds the M(u) evaluator for one anchor ball:
// M(u) = max over ball POIs o of dist_RN(u, o).
//
// Under a hub-label oracle it returns the batched label kernel: the ball
// members' label rows are flattened once (prepareBallLabels), and each
// evaluation is a single simultaneous merge of the user's attachment label
// against them (roadnet.LabelDists) — no per-pair graph search, no O(V)
// state. Under every other oracle (CH, plain Dijkstra, the road delta
// overlay) each evaluation is one bounded source-to-ball call,
// DistAttachWithinCk: the bucket many-to-many under CH and the overlay, a
// bounded search that stops once the ball is settled under Dijkstra. Both
// kernels are all-or-nothing on a checkpoint trip, and each oracle has
// exactly one of them — no cached alternative whose use depends on timing
// — so a user's M(u) is summed one way per oracle.
//
// With a keeper, evaluations are clamped at the current shared bound: a
// ball POI beyond the bound proves M(u) > bound, so the user cannot be in
// an answer that survives the keeper and +Inf is a sound stand-in
// (distances exactly at the bound stay exact, so ties survive the strict
// pruning). keeper == nil (the probe), and a keeper with no incumbent yet,
// mean unbounded exact evaluation. Every finite value is independent of
// the bound: a bound only decides which values come back +Inf.
// The returned closure reuses one output buffer and must not be called
// concurrently; build one evaluator per worker/anchor.
//
// ar is the calling worker's arena: the attachment list, the output
// buffer, and the source-label scratch come from it, so the steady state
// allocates nothing per evaluation.
// The evaluator is only valid until the same worker builds its next one
// (they share the arena's buffers), which the one-anchor-at-a-time worker
// loop guarantees.
func (e *Engine) makeMOf(ball []model.POIID, keeper *sharedKeeper, ck *roadnet.Checkpoint, ar *refineArena) func(socialnet.UserID) float64 {
	ds := e.DS
	bound := func() float64 {
		if keeper == nil {
			return math.Inf(1)
		}
		return keeper.Bound()
	}
	if tl := e.prepareBallLabels(ball, ar); tl != nil {
		out := ar.floatBuf(len(ball))
		return func(u socialnet.UserID) float64 {
			lbl := e.userLabelWith(u, ar)
			return ballMax(ds.Road.LabelDistsCk(lbl, ds.Users[u].At, tl, bound(), out, ck))
		}
	}
	ballAtts := ar.attachBuf(len(ball))
	for i, o := range ball {
		ballAtts[i] = ds.POIs[o].At
	}
	return func(u socialnet.UserID) float64 {
		return ballMax(ds.Road.DistAttachWithinCk(ds.Users[u].At, bound(), ballAtts, ck))
	}
}

// prepareBallLabels flattens the ball members' label rows into the ball's
// merge-ready target set; nil under non-label oracles (the seam makeMOf
// uses to pick its strategy).
func (e *Engine) prepareBallLabels(ball []model.POIID, ar *refineArena) *roadnet.TargetLabels {
	t, rows := e.poiRows(ball, ar)
	if t == nil {
		return nil
	}
	return t.Flatten(rows)
}

// ballMax folds one user's distances to the ball members into M(u): +Inf
// as soon as one member is beyond the bound (or the evaluation tripped).
func ballMax(dists []float64) float64 {
	m := 0.0
	for _, d := range dists {
		if math.IsInf(d, 1) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}

// refine is Algorithm 2 lines 29-31: exact filtering of the candidate sets
// and enumeration of the user-POI group pairs (S, R'(o_i)) to produce the
// actual GP-SSN answers. R is materialized as the road-network ball of
// radius r around each candidate anchor POI; S is found by branch-and-bound
// enumeration of connected τ-subsets containing u_q (or by the
// random-expansion sampling extension when Opts.SamplingRefine is set).
// It returns the best k results with distinct anchors, cheapest first.
//
// Anchors are independent given the shared incumbent, so they are fanned
// out over Opts.Parallelism workers pulling from the duq-sorted list. All
// pruning against the shared bound is strict (>), so candidates tying the
// bound survive, and ties are resolved by the keeper's canonical order —
// that is why any worker schedule returns identical answers (the
// determinism argument in docs/ALGORITHMS.md).
func (e *Engine) refine(uq socialnet.UserID, p Params, k int, tr traversal, probe Result, q *qctx) []Result {
	st := q.st
	ds := e.DS
	uqUser := ds.User(uq)

	// Exact user filtering (line 29): hop distance within τ-1 of u_q and
	// exact interest similarity >= γ.
	hops := ds.Social.BFSHopsBounded(uq, int32(p.Tau-1))
	var cand []socialnet.UserID
	for _, u := range tr.candUsers {
		if hops[u] == socialnet.Unreachable {
			st.SNObjPruned++
			st.SNObjPrunedDist++
			continue
		}
		if Similarity(p.Metric, uqUser.Interests, ds.Users[u].Interests) < p.Gamma {
			st.SNObjPruned++
			st.SNObjPrunedInterest++
			continue
		}
		cand = append(cand, u)
	}
	if e.Opts.UseCorollary2 && p.Metric == MetricDotProduct {
		cand = e.corollary2Filter(uq, p, cand, st)
	}
	st.CandUsers = len(cand)
	st.CandAnchors = len(tr.candAnchors)

	// Exact distances from u_q to every candidate anchor (one merge per
	// anchor label row under a label oracle, one one-to-all sweep
	// otherwise); anchors are then processed in ascending exact distance so
	// the search can stop as soon as the next anchor's lower bound meets the
	// incumbent.
	ar := e.acquireArena()
	duqs := e.anchorDists(uq, tr.candAnchors, q.ck, ar)
	type anchorCand struct {
		id  model.POIID
		duq float64
	}
	anchors := make([]anchorCand, 0, len(tr.candAnchors))
	for i, a := range tr.candAnchors {
		anchors = append(anchors, anchorCand{id: a, duq: duqs[i]})
	}
	e.releaseArena(ar) // duqs is arena memory: released only once copied out
	sort.Slice(anchors, func(i, j int) bool {
		if anchors[i].duq != anchors[j].duq {
			return anchors[i].duq < anchors[j].duq
		}
		return anchors[i].id < anchors[j].id
	})

	keeper := newSharedKeeper(k)
	if probe.Found {
		keeper.add(probe) // feasible: a sound incumbent
	}
	var pairs atomic.Int64

	processAnchor := func(ac anchorCand, ar *refineArena) {
		ball := e.ballAround(ac.id, p.R, q.ck)
		// A trip during ball construction leaves a degenerate ball; bail
		// before any result can be built on the wrong R set.
		if q.ck.Stopped() {
			return
		}
		kws := ballKeywords(ds, ball, ar)
		if MatchScoreSet(uqUser.Interests, kws) < p.Theta {
			return
		}
		// M(u) = max_{o in ball} dist_RN(u, o); the group cost is
		// max_{u in S} M(u). See makeMOf for the two kernels and the
		// soundness of bound truncation.
		mOf := e.makeMOf(ball, keeper, q.ck, ar)
		mUq := mOf(uq)
		// Strict comparison: a cost exactly equal to the bound may still
		// tie the k-th best and win the canonical tie-break, so it must
		// survive; +Inf (unreachable ball) never can.
		if math.IsInf(mUq, 1) || mUq > keeper.Bound() {
			return
		}
		if p.Tau == 1 {
			pairs.Add(1)
			keeper.add(Result{Found: true, S: []socialnet.UserID{uq}, R: ball, Anchor: ac.id, MaxDist: mUq})
			return
		}

		// Sound necessary conditions before any companion distance work:
		// every member of a feasible group θ-matches the ball and reaches
		// u_q through other members, so without τ-1 θ-matching candidates
		// reachable that way the anchor is dead. Checking this first costs
		// a dead anchor no evaluation at all — while no incumbent exists
		// each one is an unbounded search.
		match := ar.userBuf(len(cand))[:0]
		for _, u := range cand {
			if MatchScoreSet(ds.Users[u].Interests, kws) >= p.Theta {
				match = append(match, u)
			}
		}
		if len(match) < p.Tau-1 || !reachableEnough(ds, uq, match, p.Tau) {
			return
		}
		// No incumbent yet (the probe failed): grow one greedy feasible
		// group on this anchor first, so every later distance computation
		// runs bounded instead of unbounded. Sound — the
		// greedy result is feasible and the exact enumeration below still
		// sees this anchor, replacing the greedy entry with the anchor's
		// canonical best (so whether the seeding ran never shows in the
		// answer).
		if math.IsInf(keeper.Bound(), 1) {
			if S, cost, ok := e.greedyGroup(uq, p, ball, kws, mUq, mOf); ok && !math.IsInf(cost, 1) {
				keeper.add(Result{Found: true, S: sortedUsers(S), R: ball, Anchor: ac.id, MaxDist: cost})
			}
		}

		// Eligible companions for this anchor: θ-match the ball and have a
		// useful group cost. (match shares the arena's user buffer with
		// users below; it is dead once this loop ends.)
		comps := ar.compsBuf()
		defer func() { ar.keepComps(comps) }()
		anchorRD := e.poiRDOf(ac.id)
		for _, u := range match {
			if e.companionPruned(u, anchorRD, keeper.Bound()) {
				continue
			}
			m := mOf(u)
			if math.IsInf(m, 1) || math.Max(m, mUq) > keeper.Bound() {
				continue
			}
			comps = append(comps, anchorComp{u: u, m: m})
		}
		if len(comps) < p.Tau-1 {
			return
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i].m < comps[j].m })
		users := ar.userBuf(len(comps))
		mv := map[socialnet.UserID]float64{uq: mUq}
		for i, c := range comps {
			users[i] = c.u
			mv[c.u] = c.m
		}
		// Sound necessary condition before the exponential search: u_q
		// must reach at least τ-1 eligible companions through eligible
		// users (pairwise-γ can only shrink that set further).
		if !reachableEnough(ds, uq, users, p.Tau) {
			return
		}

		var S []socialnet.UserID
		var cost float64
		if e.Opts.SamplingRefine {
			S, cost = e.sampleGroups(uq, p, users, mv, keeper.Bound(), &pairs, q.ck)
		} else {
			S, cost = e.enumerateGroups(uq, p, users, mv, keeper.Bound(), &pairs, q.ck)
		}
		if S != nil {
			keeper.add(Result{Found: true, S: S, R: ball, Anchor: ac.id, MaxDist: cost})
		}
	}

	// Fan the duq-sorted anchors over the worker pool. Workers pull the
	// next anchor through an atomic index; a worker stops pulling once the
	// next anchor's duq exceeds the bound — duq lower-bounds the group
	// cost (the anchor is in its own ball) and later anchors are farther
	// still, so nothing those anchors could produce survives the keeper.
	par := e.Opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(anchors) {
		par = len(anchors)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic on a worker goroutine would kill the process no
			// matter what the caller recovers; capture it instead and
			// re-raise it on the calling goroutine after wg.Wait.
			defer q.capturePanic()
			ar := e.acquireArena()
			defer e.releaseArena(ar)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(anchors) {
					return
				}
				ac := anchors[i]
				if math.IsInf(ac.duq, 1) || ac.duq > keeper.Bound() {
					return
				}
				// Per-work-item cancellation/budget check: every worker
				// stops claiming anchors once the checkpoint trips, so the
				// whole pool drains within one anchor's work. A budget trip
				// is already recorded on the checkpoint; the anchor cap is
				// noted here, and only for an anchor that would otherwise
				// have been processed (the duq guard above ran first).
				if q.ck.Stopped() {
					return
				}
				if q.maxAnchors > 0 && i >= q.maxAnchors {
					q.noteTruncated()
					return
				}
				// Deterministic invariant-panic injection for the
				// robustness matrix: proves worker panics surface as a
				// typed error at the facade, never a process crash.
				if _, ok := failpoint.Eval("core.refine.panic"); ok {
					panic("core: failpoint-injected refinement panic")
				}
				processAnchor(ac, ar)
			}
		}()
	}
	wg.Wait()
	q.rethrow()

	st.PairsEvaluated = pairs.Load()
	items := keeper.rk.items
	for i := range items {
		sort.Slice(items[i].S, func(a, b int) bool { return items[i].S[a] < items[i].S[b] })
		sort.Slice(items[i].R, func(a, b int) bool { return items[i].R[a] < items[i].R[b] })
	}
	return items
}

// companionPruned is processAnchor's pivot test before it pays for an
// exact evaluation: M(u) >= dist(u, anchor) >= the pivot lower bound, so a
// bound beyond the keeper's rules u out. The lower bound is a derived
// float (|d(u,p) − d(a,p)| over two independently rounded sums) and can
// exceed an exact tied cost by an ulp, hence prunes rather than a bare >.
// Gated off once road edges have been appended — stored pivot rows then
// overestimate and the "lower bound" could prune a true companion
// (roadPivotSafe).
func (e *Engine) companionPruned(u socialnet.UserID, anchorRD []float64, bound float64) bool {
	return e.roadPivotSafe() && prunes(roadnet.LowerBound(e.userRDOf(u), anchorRD), bound)
}

// reachableEnough reports whether at least need-1 of the eligible users
// are in u_q's connected component of the eligible-induced subgraph.
func reachableEnough(ds *model.Dataset, uq socialnet.UserID, eligible []socialnet.UserID, need int) bool {
	if need <= 1 {
		return true
	}
	in := make(map[socialnet.UserID]bool, len(eligible)+1)
	for _, u := range eligible {
		in[u] = true
	}
	in[uq] = true
	seen := map[socialnet.UserID]bool{uq: true}
	stack := []socialnet.UserID{uq}
	count := 0
	for len(stack) > 0 && count < need-1 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range ds.Social.Friends(u) {
			if in[v] && !seen[v] {
				seen[v] = true
				count++
				if count >= need-1 {
					return true
				}
				stack = append(stack, v)
			}
		}
	}
	return count >= need-1
}

// greedyGroup grows one feasible connected τ-group from u_q on the given
// ball, picking the cheapest eligible friend at each step (the same greedy
// the probe uses, against an arbitrary anchor). Returns ok=false when no
// group completes within the evaluation cap.
func (e *Engine) greedyGroup(uq socialnet.UserID, p Params, ball []model.POIID, kws TopicSet, mUq float64, mOf func(socialnet.UserID) float64) ([]socialnet.UserID, float64, bool) {
	ds := e.DS
	cur := []socialnet.UserID{uq}
	inCur := map[socialnet.UserID]bool{uq: true}
	curMax := mUq
	evals := 0
	for len(cur) < p.Tau {
		var bestU socialnet.UserID = -1
		bestM := math.Inf(1)
		checked := 0
		for _, u := range cur {
			for _, v := range ds.Social.Friends(u) {
				if inCur[v] || checked >= 16 {
					continue
				}
				compatible := true
				for _, w := range cur {
					if Similarity(p.Metric, ds.Users[w].Interests, ds.Users[v].Interests) < p.Gamma {
						compatible = false
						break
					}
				}
				if !compatible || MatchScoreSet(ds.Users[v].Interests, kws) < p.Theta {
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
		inCur[bestU] = true
		if bestM > curMax {
			curMax = bestM
		}
	}
	return cur, curMax, true
}

// corollary2Filter applies Corollary 2: a candidate u_k lying in the
// pruning regions of at least |S'|-τ+1 other candidates cannot belong to
// any feasible group and is dropped. The pass iterates until fixpoint,
// since removals shrink S'.
func (e *Engine) corollary2Filter(uq socialnet.UserID, p Params, cand []socialnet.UserID, st *Stats) []socialnet.UserID {
	ds := e.DS
	for {
		// S' = {u_q} ∪ cand.
		sPrime := len(cand) + 1
		threshold := sPrime - p.Tau + 1
		if threshold <= 0 {
			return cand
		}
		var kept []socialnet.UserID
		removed := false
		for _, uk := range cand {
			wk := ds.Users[uk].Interests
			inRegions := 0
			// Regions of the query user and of every other candidate.
			if InterestScore(ds.Users[uq].Interests, wk) < p.Gamma {
				inRegions++
			}
			for _, ul := range cand {
				if ul == uk {
					continue
				}
				if InterestScore(ds.Users[ul].Interests, wk) < p.Gamma {
					inRegions++
				}
			}
			if inRegions >= threshold {
				st.SNObjPruned++
				st.SNObjPrunedInterest++
				removed = true
				continue
			}
			kept = append(kept, uk)
		}
		cand = kept
		if !removed {
			return cand
		}
	}
}

// ballAround returns the POIs within road distance radius of the anchor
// (always including the anchor itself). With a tripped checkpoint the
// checked distance batch reports +Inf for everything, so the ball
// degenerates to {anchor} — harmless, because a cancelled query errors out
// and a budget-tripped one can no longer admit results (every M(u) on the
// degenerate ball that involves a road search is +Inf too).
func (e *Engine) ballAround(anchor model.POIID, radius float64, ck *roadnet.Checkpoint) []model.POIID {
	ds := e.DS
	pre := e.Road.EuclidBall(ds.POIs[anchor].Loc, radius)
	pre = append(pre, e.deltaBallMembers(anchor, radius)...)
	atts := make([]roadnet.Attach, len(pre))
	for i, id := range pre {
		atts[i] = ds.POIs[id].At
	}
	dists := ds.Road.DistAttachWithinCk(ds.POIs[anchor].At, radius, atts, ck)
	var ball []model.POIID
	seenAnchor := false
	for i, id := range pre {
		if !math.IsInf(dists[i], 1) {
			ball = append(ball, id)
			if id == anchor {
				seenAnchor = true
			}
		}
	}
	if !seenAnchor {
		ball = append(ball, anchor)
	}
	return ball
}

// anchorDists computes exact dist_RN(u_q, anchor) for every candidate
// anchor. Under a label oracle this is one two-pointer merge of u_q's
// attachment label against each anchor's row of the POI label table — no
// per-query preparation, no O(V) array; otherwise it is one uncached
// one-to-all sweep from u_q, the right kernel for one source against
// nearly every anchor. Both paths apply the same-edge direct route, so the
// value is the true network distance and hence a sound lower bound on any
// group cost the anchor can produce (the anchor is in its own ball). A
// tripped checkpoint yields all-+Inf. The result is arena memory, valid
// until ar's next float buffer request.
func (e *Engine) anchorDists(uq socialnet.UserID, anchors []model.POIID, ck *roadnet.Checkpoint, ar *refineArena) []float64 {
	ds := e.DS
	uqAt := ds.Users[uq].At
	out := ar.floatBuf(len(anchors))
	if t, rows := e.poiRows(anchors, ar); t != nil {
		lbl := e.userLabelWith(uq, ar)
		return ds.Road.RowDistsCk(lbl, uqAt, t, rows, math.Inf(1), out, ck)
	}
	edge := ds.Road.EdgeAt(uqAt.Edge)
	uqDist := ds.Road.DijkstraMultiCk([]roadnet.Seed{
		{Vertex: edge.U, Dist: uqAt.T * edge.Weight},
		{Vertex: edge.V, Dist: (1 - uqAt.T) * edge.Weight},
	}, ck)
	tripped := ck.Stopped()
	for i, a := range anchors {
		at := ds.POIs[a].At
		d := ds.Road.DistToVertexVia(at, uqDist) // all-+Inf once tripped
		if uqAt.Edge == at.Edge && !tripped {
			if direct := math.Abs(uqAt.T-at.T) * edge.Weight; direct < d {
				d = direct
			}
		}
		out[i] = d
	}
	return out
}

// enumerateGroups finds the connected τ-subset S containing u_q with
// pairwise similarity >= γ minimizing max M(u), by ESU-style enumeration of
// connected induced subgraphs with branch-and-bound on the incumbent. It
// returns (nil, +Inf) when no feasible group has cost <= bound. All
// pruning is strict and equal-cost groups are tie-broken to the
// lexicographically smallest sorted S, so the returned group is the
// anchor's canonical optimum — independent of the bound snapshot the
// caller passed (as long as it is >= the optimum) and hence of worker
// timing. The group is returned sorted.
func (e *Engine) enumerateGroups(uq socialnet.UserID, p Params, users []socialnet.UserID, mv map[socialnet.UserID]float64, bound float64, pairs *atomic.Int64, ck *roadnet.Checkpoint) ([]socialnet.UserID, float64) {
	ds := e.DS
	eligible := make(map[socialnet.UserID]bool, len(users)+1)
	for _, u := range users {
		eligible[u] = true
	}
	eligible[uq] = true

	bestCost := bound
	var bestS []socialnet.UserID

	// neighbors restricted to eligible users, sorted by M ascending so the
	// cheapest extensions come first.
	nbrs := func(u socialnet.UserID) []socialnet.UserID {
		var out []socialnet.UserID
		for _, v := range ds.Social.Friends(u) {
			if eligible[v] {
				out = append(out, v)
			}
		}
		sort.Slice(out, func(i, j int) bool { return mv[out[i]] < mv[out[j]] })
		return out
	}

	cur := []socialnet.UserID{uq}
	curMax := mv[uq]
	expansions := 0

	var rec func(ext []socialnet.UserID, forbidden map[socialnet.UserID]bool)
	rec = func(ext []socialnet.UserID, forbidden map[socialnet.UserID]bool) {
		if e.Opts.RefineBudget > 0 && expansions > e.Opts.RefineBudget {
			return // budget exhausted: keep the best found so far
		}
		// Cancellation poll every 256 expansions: the enumeration is pure
		// CPU (no road searches), so without this a dense social ball could
		// delay a cancel by seconds. The partial best is discarded anyway —
		// a cancelled query returns an error, not a result.
		if expansions&255 == 0 && ck.Cancelled() {
			return
		}
		expansions++
		if curMax > bestCost {
			return // strictly worse than the incumbent: no extension helps
		}
		if len(cur) == p.Tau {
			pairs.Add(1)
			if !math.IsInf(curMax, 1) {
				if curMax < bestCost {
					bestCost = curMax
					bestS = sortedUsers(cur)
				} else if curMax == bestCost {
					// Equal-cost tie: keep the canonical (lex-smallest
					// sorted) group so the choice is order-independent.
					if s := sortedUsers(cur); bestS == nil || lexLessUsers(s, bestS) {
						bestS = s
					}
				}
			}
			return
		}
		localForbidden := map[socialnet.UserID]bool{}
		for i, v := range ext {
			if mv[v] > bestCost {
				// Any group containing v costs at least mv[v]; exclude it
				// from this whole subtree.
				localForbidden[v] = true
				continue
			}
			// Pairwise similarity with everything already chosen.
			ok := true
			for _, u := range cur {
				if Similarity(p.Metric, ds.Users[u].Interests, ds.Users[v].Interests) < p.Gamma {
					ok = false
					break
				}
			}
			if !ok {
				localForbidden[v] = true
				continue
			}
			// Extend.
			oldMax := curMax
			cur = append(cur, v)
			if mv[v] > curMax {
				curMax = mv[v]
			}
			// New extension: remaining ext plus v's eligible neighbours not
			// already excluded, in cur, or in ext.
			inExt := map[socialnet.UserID]bool{}
			var newExt []socialnet.UserID
			for _, w := range ext[i+1:] {
				if !localForbidden[w] && !forbidden[w] {
					newExt = append(newExt, w)
					inExt[w] = true
				}
			}
			inCur := map[socialnet.UserID]bool{}
			for _, u := range cur {
				inCur[u] = true
			}
			for _, w := range nbrs(v) {
				if !inCur[w] && !inExt[w] && !forbidden[w] && !localForbidden[w] && !containsUserBefore(ext, i, w) {
					newExt = append(newExt, w)
					inExt[w] = true
				}
			}
			sort.Slice(newExt, func(a, b int) bool { return mv[newExt[a]] < mv[newExt[b]] })
			rec(newExt, mergeForbidden(forbidden, localForbidden))
			cur = cur[:len(cur)-1]
			curMax = oldMax
			localForbidden[v] = true
		}
	}
	rec(nbrs(uq), map[socialnet.UserID]bool{})
	if bestS == nil {
		return nil, math.Inf(1)
	}
	return bestS, bestCost
}

func containsUserBefore(ext []socialnet.UserID, i int, w socialnet.UserID) bool {
	for _, u := range ext[:i+1] {
		if u == w {
			return true
		}
	}
	return false
}

func mergeForbidden(a, b map[socialnet.UserID]bool) map[socialnet.UserID]bool {
	if len(b) == 0 {
		return a
	}
	out := make(map[socialnet.UserID]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// sampleGroups is the random-expansion subset sampling the paper sketches
// as future work: grow SampleCount random connected groups from u_q and
// keep the best feasible one. Approximate. The rng is seeded from (uq, τ)
// only and ties are tie-broken canonically, so the trial sequence and the
// returned group do not depend on which worker runs the anchor. The group
// is returned sorted.
func (e *Engine) sampleGroups(uq socialnet.UserID, p Params, users []socialnet.UserID, mv map[socialnet.UserID]float64, bound float64, pairs *atomic.Int64, ck *roadnet.Checkpoint) ([]socialnet.UserID, float64) {
	ds := e.DS
	eligible := make(map[socialnet.UserID]bool, len(users)+1)
	for _, u := range users {
		eligible[u] = true
	}
	eligible[uq] = true
	rng := rand.New(rand.NewSource(int64(uq)*1000003 + int64(p.Tau)))

	bestCost := bound
	var bestS []socialnet.UserID
	for trial := 0; trial < e.Opts.SampleCount; trial++ {
		if ck.Cancelled() {
			break
		}
		cur := []socialnet.UserID{uq}
		inCur := map[socialnet.UserID]bool{uq: true}
		curMax := mv[uq]
		for len(cur) < p.Tau {
			// Random eligible, compatible neighbour of the current set.
			var frontier []socialnet.UserID
			for _, u := range cur {
				for _, v := range ds.Social.Friends(u) {
					if !eligible[v] || inCur[v] {
						continue
					}
					compatible := true
					for _, w := range cur {
						if Similarity(p.Metric, ds.Users[w].Interests, ds.Users[v].Interests) < p.Gamma {
							compatible = false
							break
						}
					}
					if compatible {
						frontier = append(frontier, v)
					}
				}
			}
			if len(frontier) == 0 {
				break
			}
			v := frontier[rng.Intn(len(frontier))]
			cur = append(cur, v)
			inCur[v] = true
			if mv[v] > curMax {
				curMax = mv[v]
			}
		}
		if len(cur) == p.Tau {
			pairs.Add(1)
			if !math.IsInf(curMax, 1) {
				if curMax < bestCost {
					bestCost = curMax
					bestS = sortedUsers(cur)
				} else if curMax == bestCost {
					if s := sortedUsers(cur); bestS == nil || lexLessUsers(s, bestS) {
						bestS = s
					}
				}
			}
		}
	}
	if bestS == nil {
		return nil, math.Inf(1)
	}
	return bestS, bestCost
}
