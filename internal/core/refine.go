package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"gpssn/internal/failpoint"
	"gpssn/internal/geo"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/rtree"
	"gpssn/internal/socialnet"
)

// probe searches for one feasible solution around the issuer's nearest
// anchor POIs by greedy connected group growth. Its cost, when found, is a
// sound upper bound on the optimum (it is the cost of an actual feasible
// pair), so it can seed the refinement keeper, whose bound prunes the
// anchor stream. ar is scratch for the probe's balls and evaluators.
func (e *Engine) probe(uq socialnet.UserID, p Params, q *qctx, ar *refineArena) Result {
	best := Result{MaxDist: math.Inf(1)}
	ds := e.DS
	uqRow := e.topics.user(uq)
	const probeAnchors = 3
	nn := e.Road.Tree.Nearest(ds.Users[uq].Loc, probeAnchors)
	kwRows, pend := e.keywordRowsComplete(), e.roadPending()
	// At most 2·probeAnchors anchors are tried, so a scan beats a set.
	tried := make([]model.POIID, 0, 2*probeAnchors)
	tryAnchor := func(anchor model.POIID) {
		if slices.Contains(tried, anchor) || q.ck.Stopped() {
			return
		}
		tried = append(tried, anchor)
		// Lemma 1 before the ball: the bound is u_q's score over a
		// superset of the ball's keywords, so a failing anchor's ball
		// would fail the θ-test below.
		if e.lemma1(anchor, p, uqRow, kwRows, pend) {
			return
		}
		ball := e.ballAround(anchor, p.R, q.ck)
		if q.ck.Stopped() {
			return // degenerate ball (see refine's processAnchor)
		}
		kws := ballKeywords(ds, ball, ar)
		if uqRow.match(kws) < p.Theta {
			return
		}
		mOf := e.makeMOf(ball, nil, q.ck, ar)
		mUq := mOf(uq)
		if mUq >= best.MaxDist {
			return
		}
		if cur, curMax, ok := e.greedyGroup(uq, p, ball, kws, mUq, mOf); ok && curMax < best.MaxDist {
			r := slices.Clone(ball)
			slices.Sort(r)
			best = Result{Found: true, S: sortedUsers(cur), R: r, Anchor: anchor, MaxDist: curMax}
		}
	}
	for _, nb := range nn {
		tryAnchor(model.POIID(nb.Item.ID))
	}
	// Second round: anchors near the found group's centroid usually beat
	// anchors near the issuer alone, and a tighter incumbent is the main
	// lever on the anchor stream's pruning.
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

// userLabelWith returns u's attachment hub label, computed into the
// arena's reusable label scratch — no pool traffic at all. Only call under
// a label oracle. The returned label is read-only and valid until the next
// userLabelWith call on the same arena, which is exactly the one-user-at-
// a-time lifetime an M(u) evaluation needs.
func (e *Engine) userLabelWith(u socialnet.UserID, ar *refineArena) *roadnet.HubLabel {
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
// With the engine's own POI label table (labelTable) it returns the
// batched label kernel: the ball members' label rows are flattened once
// (prepareBallLabels), and each evaluation is a single simultaneous merge
// of the user's attachment label against them (roadnet.LabelDists) — no
// per-pair graph search, no O(V) state. Any other engine (CH, plain
// Dijkstra, or hub labels with no valid table) runs each evaluation as one
// bounded source-to-ball call, DistAttachWithinCk: the bucket many-to-many
// under CH, a bounded search that stops once the ball is settled under
// Dijkstra. Both kernels are all-or-nothing on a checkpoint trip, and each
// engine has exactly one of them — no cached alternative whose use depends
// on timing — so a user's M(u) is summed one way per engine.
//
// While road edges are pending the labels answer for the base graph, and
// the clearance rule (pending.go) checks every member's label distance:
// one beyond the bound and provably so in G makes M(u) +Inf, and the
// members it cannot vouch for are priced through the delta-overlay
// (DistAttachWithinCk) in one call. A finite distance of a (user, POI)
// pair is its label sum exactly when the unbounded label distance passes
// the test, which no bound changes, so each pair is still summed one way —
// the same way the anchor stream resolves it (newAnchorOrder), so u_q's
// distance to an anchor agrees bit for bit with its share of M(u_q).
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
	tl := e.prepareBallLabels(ball, ar)
	pend := e.roadPending()
	if tl != nil && !pend {
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
	if tl == nil {
		return func(u socialnet.UserID) float64 {
			return ballMax(ds.Road.DistAttachWithinCk(ds.Users[u].At, bound(), ballAtts, ck))
		}
	}
	out, clr := ar.floatBuf(len(ball)), make([]float64, len(ball))
	for i, at := range ballAtts {
		clr[i] = e.clearance(at)
	}
	return func(u socialnet.UserID) float64 {
		at, b := ds.Users[u].At, bound()
		ds.Road.LabelDistsCk(e.userLabelWith(u, ar), at, tl, b, out, ck)
		eu := e.clearance(at)
		var miss []int
		for i, d := range out {
			if !labelExact(d, b, eu+clr[i]) {
				miss = append(miss, i)
			} else if math.IsInf(d, 1) {
				return d
			}
		}
		if miss != nil {
			atts := make([]roadnet.Attach, len(miss))
			for j, i := range miss {
				atts[j] = ballAtts[i]
			}
			for j, d := range ds.Road.DistAttachWithinCk(at, b, atts, ck) {
				out[miss[j]] = d
			}
		}
		return ballMax(out)
	}
}

// prepareBallLabels flattens the ball members' rows of the engine's label
// table into the ball's merge-ready target set; nil without a valid table
// (labelTable, the seam makeMOf uses to pick its kernel).
func (e *Engine) prepareBallLabels(ball []model.POIID, ar *refineArena) *roadnet.TargetLabels {
	t := e.labelTable()
	if t == nil {
		return nil
	}
	rows := ar.rowBuf(len(ball))
	for i, id := range ball {
		rows[i] = int32(id)
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

// refine is Algorithm 2's I_R side and lines 29-31: the anchor stream
// order browses I_R best-first and yields the candidate anchors in
// ascending exact distance from u_q, and each anchor gets exact filtering
// and enumeration of the user-POI group pairs (S, R'(o_i)) to produce the
// actual GP-SSN answers. R is materialized as the road-network ball of
// radius r around each anchor POI; S is found by branch-and-bound
// enumeration of connected τ-subsets containing u_q over the candidate
// graph the social half built in the query arena qar. keeper holds the k
// best results with distinct anchors (the probe's, if any); refine
// returns them, cheapest first.
//
// Everything after the ball depends on the ball's POI set only, so each
// distinct ball is refined once per query: the first anchor with a ball
// owns its class in qar's class table (classes.go) and every later one
// replays the class outcome under its own id (docs/ALGORITHMS.md,
// "One refinement per distinct ball").
//
// Anchors are independent given the shared incumbent, so they are fanned
// out over Opts.Parallelism workers claiming from the anchor stream. All
// pruning against the shared bound is strict (>), so candidates tying the
// bound survive, and ties are resolved by the keeper's canonical order —
// that is why any worker schedule returns identical answers (the
// determinism argument in docs/ALGORITHMS.md).
func (e *Engine) refine(uq socialnet.UserID, p Params, qar *refineArena, keeper *sharedKeeper, order *anchorOrder, q *qctx) []Result {
	st := q.st
	ds := e.DS
	ut := e.topics
	uqRow := ut.user(uq)
	cg := &qar.cg
	classes := &qar.classes
	classes.reset(qar)
	defer classes.release()
	var pairs, thetaFailed, reachFailed, mEvals, sameBall, nearPortal atomic.Int64

	// refineBall is the work after the ball: the θ-test, M(u_q), the
	// companions and the group search. It adds what it finds to the
	// keeper under the anchor's id and returns the outcome for the ball's
	// class: the exact search's group, never the greedy seed's.
	refineBall := func(ac anchorEntry, ball []model.POIID, ar *refineArena) (classKind, []socialnet.UserID, float64) {
		kws := ballKeywords(ds, ball, ar)
		if uqRow.match(kws) < p.Theta {
			thetaFailed.Add(1)
			return classThetaFailed, nil, 0
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
			return classDead, nil, 0
		}
		if p.Tau == 1 {
			pairs.Add(1)
			S := []socialnet.UserID{uq}
			keeper.add(Result{Found: true, S: S, R: ball, Anchor: ac.id, MaxDist: mUq})
			return classFound, S, mUq
		}

		// No incumbent yet (the probe failed): grow one greedy feasible
		// group on this anchor first, so the companion search's
		// evaluations run bounded instead of unbounded. Sound — the
		// greedy result is feasible and the exact enumeration below still
		// sees this anchor, replacing the greedy entry with the anchor's
		// canonical best (so whether the seeding ran never shows in the
		// answer). An anchor the search below finds dead cannot have
		// produced one: a feasible group's members are all companions.
		if math.IsInf(keeper.Bound(), 1) {
			if S, cost, ok := e.greedyGroup(uq, p, ball, kws, mUq, mOf); ok && !math.IsInf(cost, 1) {
				keeper.add(Result{Found: true, S: sortedUsers(S), R: ball, Anchor: ac.id, MaxDist: cost})
			}
		}

		// The users a group on this ball that survives the keeper may hold
		// besides u_q (companions). Each is pivot-tested and evaluated the
		// first time the search reaches it. Without τ-1 of them the anchor
		// is dead.
		anchorRD, anchorE := e.poiRDOf(ac.id), math.Inf(1)
		if e.roadPending() {
			anchorE = e.clearance(ds.POIs[ac.id].At)
		}
		evals := 0
		comps := ar.companions(cg, ut, p, kws, mUq, keeper, func(u socialnet.UserID) float64 {
			if e.companionPruned(u, anchorRD, anchorE, keeper.Bound()) {
				return math.Inf(1)
			}
			evals++
			return mOf(u)
		})
		mEvals.Add(int64(evals))
		if len(comps) < p.Tau-1 {
			reachFailed.Add(1)
			return classReachFailed, nil, 0
		}
		g := ar.groups(cg, ut, p, uq, mUq, comps)
		S, cost := g.enumerateGroups(keeper.Bound(), &pairs, q.ck)
		if S == nil {
			return classDead, nil, 0
		}
		keeper.add(Result{Found: true, S: S, R: ball, Anchor: ac.id, MaxDist: cost})
		return classFound, S, cost
	}

	// replay applies a recorded class outcome to a later anchor of the
	// class: a found group enters the keeper under the anchor's own id and
	// ball (the keeper trims it if the bound has since fallen below its
	// cost), a failed test counts, a dead class does nothing.
	replay := func(o classOutcome, id model.POIID, ball []model.POIID) {
		switch o.kind {
		case classThetaFailed:
			thetaFailed.Add(1)
		case classReachFailed:
			reachFailed.Add(1)
		case classFound:
			keeper.add(Result{Found: true, S: slices.Clone(o.s), R: ball, Anchor: id, MaxDist: o.cost})
		}
	}

	processAnchor := func(ac anchorEntry, ar *refineArena) {
		ball, near := e.ball(ac.id, p.R, q.ck)
		if near {
			nearPortal.Add(1)
		}
		// A trip during ball construction leaves a degenerate ball; bail
		// before any result can be built on the wrong R set.
		if q.ck.Stopped() {
			return
		}
		slices.Sort(ball)
		c, owner := classes.claim(qar, ball, ac.id, replay)
		if !owner {
			sameBall.Add(1)
			return
		}
		kind, S, cost := refineBall(ac, ball, ar)
		// A trip anywhere in the refinement may have cut an evaluation to
		// +Inf: record nothing, and the anchors waiting on the class add
		// nothing either.
		if q.ck.Stopped() {
			classes.drop(c)
			return
		}
		classes.record(qar, c, kind, S, cost, replay)
	}

	// Fan the anchors over the worker pool. Anchors are processed in
	// ascending exact distance from u_q so the search can stop as soon as
	// the next anchor's distance exceeds the keeper's bound. Workers claim
	// the next anchor in (duq, id) order under orderMu, which also guards
	// the I_R node expansions, page reads and RN* counters the claim runs
	// into; a
	// worker stops claiming once the next anchor's duq exceeds the bound —
	// duq lower-bounds the group cost (the anchor is in its own ball) and
	// later anchors are farther still, so nothing those anchors could
	// produce survives the keeper.
	par := e.parallelism()
	var orderMu sync.Mutex
	claim := func() (anchorEntry, int, bool) {
		orderMu.Lock()
		defer orderMu.Unlock()
		ac, ok := order.next(keeper.Bound())
		return ac, order.pops - 1, ok
	}
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
				ac, i, ok := claim()
				if !ok {
					return
				}
				// Per-work-item cancellation/budget check: every worker
				// stops claiming anchors once the checkpoint trips, so the
				// whole pool drains within one anchor's work. A budget trip
				// is already recorded on the checkpoint; the anchor cap is
				// noted here, and only for an anchor that would otherwise
				// have been processed (the duq guard in next ran first).
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
	e.closeAnchorOrder(order, st)
	st.AnchorsSameBall = int(sameBall.Load())
	st.AnchorsNearPortal = int(nearPortal.Load())
	q.tracef("anchor stream: nodes expanded=%d anchors entered=%d resolved=%d popped=%d same ball=%d near portal=%d",
		order.expanded, order.entered, order.resolved, order.pops, st.AnchorsSameBall, st.AnchorsNearPortal)

	st.PairsEvaluated = pairs.Load()
	st.AnchorsThetaFailed = int(thetaFailed.Load())
	st.AnchorsReachFailed = int(reachFailed.Load())
	st.MEvaluations = mEvals.Load()
	items := keeper.rk.items
	for i := range items {
		slices.Sort(items[i].S)
		slices.Sort(items[i].R)
	}
	return items
}

// anchorEntry is one entry of refinement's anchor stream: an I_R node
// (node non-nil) or a candidate anchor POI. A resolved anchor's key is the
// exact dist_RN(u_q, id) (duq); a node's or an unresolved anchor's key
// lower-bounds the duq of every anchor it stands for.
type anchorEntry struct {
	key      float64
	node     *rtree.Node
	id       model.POIID
	resolved bool
}

// before is the heap order: key ascending, then unresolved (nodes
// included) before resolved at an equal key, then id.
func (a *anchorEntry) before(b *anchorEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.resolved != b.resolved {
		return !a.resolved
	}
	return a.id < b.id
}

// anchorOrder is the anchor stream: one binary min-heap over
// anchorEntry.before, fed from the I_R root, that yields the candidate
// anchors in ascending (duq, id) order while expanding only the nodes and
// resolving only the anchors that reach its front (distance browsing,
// Hjaltason and Samet). A node on top is expanded: its surviving children
// or anchors are pushed (expand). An unresolved top is resolved and sifted
// back in. A resolved top is popped: every other key is a lower bound on
// the duq of the anchors it stands for, and at an equal key the node or
// unresolved entry would be on top, so every such key is strictly above
// the popped duq and no anchor not yet resolved precedes it in (duq, id)
// order. The pops are therefore exactly the eager sort of every anchor
// the index rules keep, truncated at the stop rule. Not safe for
// concurrent use; refine guards it with a mutex.
type anchorOrder struct {
	h       []anchorEntry
	ar      *refineArena // holds h's capacity between queries
	expand  func(n *rtree.Node, bound float64)
	resolve func(model.POIID) float64
	ck      *roadnet.Checkpoint

	expanded int // I_R nodes expanded
	entered  int // anchors pushed (CandAnchors)
	resolved int // exact u_q-anchor distances computed
	pops     int
}

// newAnchorOrder builds the anchor stream over I_R for issuer uq: the root
// (its page read, counted in q.roadNodes) and the delta POIs, which have
// no keyword distance row and no pivot bound and so enter at key 0.
// Expanding a node applies, under the bound the claim passed, Lemma 6 then
// Lemma 7 to each child — a survivor's page is read and it enters keyed by
// Eq. 17 — or, at a leaf, Lemma 1 then Lemma 5 to each POI, and writes
// the RN* counters.
// Every anchor enters unresolved, keyed by its Lemma 5 bound, and is
// resolved at the front by the kernel makeMOf prices the same pair with,
// so its key equals its share of M(u_q) bit for bit: under the engine's
// own POI label table (labelTable) one row merge against u_q's label,
// which lives in ar for the query; under any other engine one
// DistAttachWithinCk call. While road edges are pending, the bounds and
// the keyword rules take the clearance rule (pending.go), and a row merge
// the rule cannot vouch for is resolved through the delta-overlay
// instead, as makeMOf does. DisableIndexPruning keys every node 0 and skips
// Lemmas 6 and 7; DisableDistancePruning, or an issuer with no pivot
// vector (a delta user on a new road edge), keys every node and
// unresolved anchor 0 and skips Lemmas 5 and 7.
func (e *Engine) newAnchorOrder(uq socialnet.UserID, p Params, q *qctx, ar *refineArena) *anchorOrder {
	ds, st := e.DS, q.st
	uqRow, uqRD, uqAt := e.topics.user(uq), e.userRDOf(uq), ds.Users[uq].At
	kwRows, pend := e.keywordRowsComplete(), e.roadPending()
	distLB := !e.Opts.DisableDistancePruning && uqRD != nil
	nodeRules := !e.Opts.DisableIndexPruning
	uqE := math.Inf(1)
	if pend {
		uqE = e.clearance(uqAt)
	}
	o := &anchorOrder{h: ar.anchs[:0], ar: ar, ck: q.ck}

	t := e.labelTable()
	var lbl *roadnet.HubLabel
	if t != nil {
		lbl = e.userLabelWith(uq, ar)
	}
	row, out, atts := ar.rowBuf(1), ar.floatBuf(1), ar.attachBuf(1)
	o.resolve = func(id model.POIID) float64 {
		atts[0] = ds.POIs[id].At
		if t != nil {
			row[0] = int32(id)
			d := ds.Road.RowDistsCk(lbl, uqAt, t, row, math.Inf(1), out, q.ck)[0]
			if !pend || labelExact(d, math.Inf(1), uqE+e.clearance(atts[0])) {
				return d
			}
		}
		return ds.Road.DistAttachWithinCk(uqAt, math.Inf(1), atts, q.ck)[0]
	}
	o.expand = func(n *rtree.Node, bound float64) {
		if n.IsLeaf() {
			for _, ent := range n.Entries() {
				id := model.POIID(ent.ID)
				// Both rules are evaluated on every leaf POI — the object
				// is pruned when either fires, and each rule's power is
				// counted independently, which is how Fig. 7(c) reports
				// them. Matching: Lemma 1, u_q's score over a superset of
				// the radius-r ball's keywords. Distance: Lemma 5, the
				// pivot lower bound against the keeper's bound.
				matchPrune := e.lemma1(id, p, uqRow, kwRows, pend)
				lb, distPrune := 0.0, false
				if distLB {
					lb = roadnet.LowerBound(uqRD, e.Road.POIDist(id))
					if uqE < lb {
						lb = min(lb, uqE+e.clearance(ds.POIs[id].At))
					}
					distPrune = prunes(lb, bound)
				}
				if matchPrune {
					st.RNObjPrunedMatch++
				}
				if distPrune {
					st.RNObjPrunedDist++
				}
				if matchPrune || distPrune {
					st.RNObjPruned++
					continue
				}
				o.entered++
				o.push(anchorEntry{key: boundKey(lb), id: id})
			}
			return
		}
		for _, ent := range n.Entries() {
			child := ent.Child
			m := e.Road.Meta(child)
			key := 0.0
			if nodeRules {
				// Lemma 6: matching score pruning for index nodes, for a
				// node whose every POI is far enough from the old
				// portals that its balls are the base graph's.
				if kwRows && uqRow.matchUb(m.KwMin, p.R) < p.Theta &&
					(!pend || farFromPortals(e.rectClearance(ent.Rect), p.R)) {
					st.RNIndexPruned += m.POICount
					st.RNIndexPrunedMatch += m.POICount
					continue
				}
				// Lemma 7 / Eq. 17: distance lower bound vs the bound.
				if distLB {
					lb := nodeDistLb(uqRD, m.LbDist, m.UbDist)
					if uqE < lb {
						lb = min(lb, uqE+e.rectClearance(ent.Rect))
					}
					if prunes(lb, bound) {
						st.RNIndexPruned += m.POICount
						st.RNIndexPrunedDist += m.POICount
						continue
					}
					key = boundKey(lb)
				}
			}
			q.roadNodes++
			o.push(anchorEntry{key: key, node: child})
		}
	}

	root := e.Road.Tree.Root()
	q.roadNodes++
	o.push(anchorEntry{node: root})
	for id := e.dyn.indexedPOIs; id < len(ds.POIs); id++ {
		o.entered++
		o.push(anchorEntry{id: model.POIID(id)})
	}
	return o
}

// closeAnchorOrder counts the POIs under the nodes the stream's stop left
// unexpanded as pruned by distance (Lemma 7 at the final bound: every one
// of them is farther than it), which completes the partition RNIndexPruned
// + RNObjPruned + CandAnchors = RNPOIsTotal, records the stream's
// candidate and distance counts, and hands the heap back to its arena.
func (e *Engine) closeAnchorOrder(o *anchorOrder, st *Stats) {
	for i := range o.h {
		if n := o.h[i].node; n != nil {
			cnt := e.Road.Meta(n).POICount
			st.RNIndexPruned += cnt
			st.RNIndexPrunedDist += cnt
		}
	}
	st.CandAnchors = o.entered
	st.AnchorDistances = o.resolved
	o.ar.anchs = kept(o.ar, o.ar.anchs, o.h, anchorEntrySize)
}

// push adds an entry to the heap.
func (o *anchorOrder) push(en anchorEntry) {
	o.h = append(o.h, en)
	h := o.h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the top entry.
func (o *anchorOrder) pop() {
	last := len(o.h) - 1
	o.h[0] = o.h[last]
	o.h = o.h[:last]
	o.down(0)
}

// next pops the next anchor in (duq, id) order, or reports false where
// settle does.
func (o *anchorOrder) next(bound float64) (anchorEntry, bool) {
	if !o.settle(bound) {
		return anchorEntry{}, false
	}
	ac := o.h[0]
	o.pop()
	o.pops++
	return ac, true
}

// settle expands nodes and resolves anchors at the top until a resolved
// anchor is there, and reports true; or reports false once the top key is
// +Inf or exceeds bound (or the checkpoint tripped while resolving, or
// before expanding a node: cancellation is polled once per expanded node).
// A node or unresolved anchor whose key already exceeds bound stops the
// stream without being expanded or resolved; nodes are expanded against
// bound.
func (o *anchorOrder) settle(bound float64) bool {
	for len(o.h) > 0 {
		top := &o.h[0]
		if math.IsInf(top.key, 1) || top.key > bound {
			return false
		}
		if n := top.node; n != nil {
			if o.ck.Stopped() {
				return false
			}
			o.pop()
			o.expanded++
			o.expand(n, bound)
			continue
		}
		if !top.resolved {
			top.key, top.resolved = o.resolve(top.id), true
			o.resolved++
			if o.ck.Stopped() {
				return false
			}
			o.down(0)
			continue
		}
		return true
	}
	return false
}

// down sifts entry i down to its place.
func (o *anchorOrder) down(i int) {
	h := o.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// companionPruned is processAnchor's pivot test before it pays for an
// exact evaluation: M(u) >= dist(u, anchor) >= the pivot lower bound, so a
// bound beyond the keeper's rules u out. The lower bound is a derived
// float (|d(u,p) − d(a,p)| over two independently rounded sums) and can
// exceed an exact tied cost by an ulp, hence prunes rather than a bare >.
// While road edges are pending the stored rows answer for the base graph,
// and the bound is capped at E(u) + anchorE, the anchor's clearance
// (+Inf with none pending; pending.go). A user or anchor without a pivot
// vector (a delta object on a new road edge) is never pruned.
func (e *Engine) companionPruned(u socialnet.UserID, anchorRD []float64, anchorE, bound float64) bool {
	rd := e.userRDOf(u)
	if rd == nil || anchorRD == nil {
		return false
	}
	lb := roadnet.LowerBound(rd, anchorRD)
	if anchorE < lb {
		lb = min(lb, anchorE+e.clearance(e.DS.Users[u].At))
	}
	return prunes(lb, bound)
}

// lemma1 reports whether Lemma 1 prunes anchor id: u_q's score over the
// superset of its radius-r ball's keywords the rows hold falls below θ.
// The rows must account for every POI (kwRows), and while road edges are
// pending (pend) the anchor must be far enough from the old portals that
// its ball is the base graph's (pending.go).
func (e *Engine) lemma1(id model.POIID, p Params, uqRow topicRow, kwRows, pend bool) bool {
	return kwRows && uqRow.matchUb(e.Road.KeywordDist(id), p.R) < p.Theta &&
		(!pend || farFromPortals(e.clearance(e.DS.POIs[id].At), p.R))
}

// ballAround returns the POIs within road distance radius of the anchor
// (always including the anchor itself); see ball.
func (e *Engine) ballAround(anchor model.POIID, radius float64, ck *roadnet.Checkpoint) []model.POIID {
	b, _ := e.ball(anchor, radius, ck)
	return b
}

// ball returns the POIs within road distance radius of the anchor (always
// including the anchor itself), and whether road edges are pending within
// reach of it. An anchor farther than radius from every old portal has the
// same ball in the grown graph as in the base (pending.go): no member can
// sit on a new edge, and one base-oracle call prices the rest, bit for bit
// what the delta-overlay would return. A near one is priced through the
// overlay. With a tripped checkpoint the checked distance batch reports
// +Inf for everything, so the ball degenerates to {anchor} — harmless,
// because a cancelled query errors out and a budget-tripped one can no
// longer admit results (every M(u) on the degenerate ball that involves a
// road search is +Inf too).
func (e *Engine) ball(anchor model.POIID, radius float64, ck *roadnet.Checkpoint) (ball []model.POIID, near bool) {
	ds := e.DS
	pre := e.Road.EuclidBall(ds.POIs[anchor].Loc, radius)
	pre = append(pre, e.deltaBallMembers(anchor, radius)...)
	at := ds.POIs[anchor].At
	far := true
	if e.roadPending() {
		far = farFromPortals(e.clearance(at), radius)
		if far {
			pre = slices.DeleteFunc(pre, func(id model.POIID) bool { return ds.Road.NewEdge(ds.POIs[id].At.Edge) })
		}
	}
	atts := make([]roadnet.Attach, len(pre))
	for i, id := range pre {
		atts[i] = ds.POIs[id].At
	}
	var dists []float64
	if far {
		dists = ds.Road.DistAttachWithinBaseCk(at, radius, atts, ck)
	} else {
		dists = ds.Road.DistAttachWithinCk(at, radius, atts, ck)
	}
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
	return ball, !far
}
