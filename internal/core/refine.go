package core

import (
	"math"
	"runtime"
	"slices"
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
	uqRow := e.topics.user(uq)
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	const probeAnchors = 3
	nn := e.Road.Tree.Nearest(ds.Users[uq].Loc, probeAnchors)
	kwLB := e.keywordBoundsSafe()
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
		if kwLB && uqRow.matchUb(e.Road.KeywordDist(anchor), p.R) < p.Theta {
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

// userLabelWith returns u's attachment hub label, computed into the
// arena's reusable label scratch — no pool traffic at all. Only call under
// a label oracle. The returned label is read-only and valid until the next
// userLabelWith call on the same arena, which is exactly the one-user-at-
// a-time lifetime the evaluation loop needs.
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
// enumeration of connected τ-subsets containing u_q.
// It returns the best k results with distinct anchors, cheapest first.
//
// Anchors are independent given the shared incumbent, so they are fanned
// out over Opts.Parallelism workers claiming from the anchor order. All
// pruning against the shared bound is strict (>), so candidates tying the
// bound survive, and ties are resolved by the keeper's canonical order —
// that is why any worker schedule returns identical answers (the
// determinism argument in docs/ALGORITHMS.md).
func (e *Engine) refine(uq socialnet.UserID, p Params, k int, tr traversal, probe Result, q *qctx) []Result {
	st := q.st
	ds := e.DS
	ut := e.topics
	uqRow := ut.user(uq)

	// Exact user filtering (line 29): hop distance within τ-1 of u_q. The
	// exact interest test (similarity >= γ) already ran on every candidate
	// in the traversal — interestPrunable is that very predicate.
	hops := ds.Social.BFSHopsBounded(uq, int32(p.Tau-1))
	var cand []socialnet.UserID
	for _, u := range tr.candUsers {
		if hops[u] == socialnet.Unreachable {
			st.SNObjPruned++
			st.SNObjPrunedDist++
			continue
		}
		cand = append(cand, u)
	}
	// Ascending ids: reachableEnough binary-searches each anchor's matching
	// subset of cand.
	slices.Sort(cand)
	st.CandUsers = len(cand)
	st.CandAnchors = len(tr.candAnchors)

	// Anchors are processed in ascending exact distance from u_q so the
	// search can stop as soon as the next anchor's distance exceeds the
	// incumbent; the order resolves that distance only for anchors that
	// reach its front (anchorOrder). qar holds u_q's label and the heap for
	// the whole query.
	qar := e.acquireArena()
	defer e.releaseArena(qar)
	order := e.newAnchorOrder(uq, tr, q.ck, qar)

	keeper := newSharedKeeper(k)
	if probe.Found {
		keeper.add(probe) // feasible: a sound incumbent
	}
	var pairs, thetaFailed atomic.Int64

	processAnchor := func(ac anchorEntry, ar *refineArena) {
		ball := e.ballAround(ac.id, p.R, q.ck)
		// A trip during ball construction leaves a degenerate ball; bail
		// before any result can be built on the wrong R set.
		if q.ck.Stopped() {
			return
		}
		kws := ballKeywords(ds, ball, ar)
		if uqRow.match(kws) < p.Theta {
			thetaFailed.Add(1)
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
			if ut.user(u).match(kws) >= p.Theta {
				match = append(match, u)
			}
		}
		if len(match) < p.Tau-1 || !reachableEnough(ds, uq, match, p.Tau, ar) {
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
		// useful group cost. match is in ascending id order (cand is), and
		// so is comps until the group search re-indexes it.
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
		g := ar.groups(ds, ut, p, uq, mUq, comps)
		// Sound necessary condition before the exponential search: u_q
		// must reach at least τ-1 eligible companions through eligible
		// users (pairwise-γ can only shrink that set further).
		if !g.reachable() {
			return
		}

		if S, cost := g.enumerateGroups(keeper.Bound(), &pairs, q.ck); S != nil {
			keeper.add(Result{Found: true, S: S, R: ball, Anchor: ac.id, MaxDist: cost})
		}
	}

	// Fan the anchors over the worker pool. Workers claim the next anchor
	// in (duq, id) order under orderMu; a worker stops claiming once the
	// next anchor's duq exceeds the bound — duq lower-bounds the group
	// cost (the anchor is in its own ball) and later anchors are farther
	// still, so nothing those anchors could produce survives the keeper.
	par := e.Opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(tr.candAnchors) {
		par = len(tr.candAnchors)
	}
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

	st.PairsEvaluated = pairs.Load()
	st.AnchorsThetaFailed = int(thetaFailed.Load())
	st.AnchorDistances = order.resolved
	items := keeper.rk.items
	for i := range items {
		slices.Sort(items[i].S)
		slices.Sort(items[i].R)
	}
	return items
}

// anchorEntry is one candidate anchor in refinement's order. Once resolved,
// key is the exact dist_RN(u_q, id) (duq); before that it is a lower bound
// on duq.
type anchorEntry struct {
	key      float64
	id       model.POIID
	resolved bool
}

// before is the heap order: key ascending, then unresolved before resolved
// at an equal key, then id.
func (a *anchorEntry) before(b *anchorEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.resolved != b.resolved {
		return !a.resolved
	}
	return a.id < b.id
}

// anchorOrder yields the candidate anchors in ascending (duq, id) order
// while computing duq only for the anchors that reach its front: a binary
// min-heap over anchorEntry.before whose unresolved keys lower-bound their
// duq. An unresolved top is resolved and sifted back in. A resolved top
// is popped: every unresolved key is strictly above its duq (at an equal
// key the unresolved entry would be on top), and an unresolved key never
// exceeds the duq it bounds, so no unresolved anchor precedes it in
// (duq, id) order. The pops are therefore exactly the eager sort,
// truncated at the stop rule. Not safe for concurrent use; refine guards
// it with a mutex.
type anchorOrder struct {
	h        []anchorEntry
	resolve  func(model.POIID) float64
	ck       *roadnet.Checkpoint
	resolved int // exact u_q-anchor distances computed
	pops     int
}

// newAnchorOrder builds the order over tr's candidate anchors. Under the
// engine's POI label table every key starts as the traversal's pivot lower
// bound, shrunk by the same relative slack prunes allows (a bound that
// rounded up past a tied exact distance must not reorder anchors), and is
// resolved on demand with one row merge against u_q's label, which lives
// in ar for the query. Without the table (no label oracle, the road delta
// overlay, an engine sharing its dataset) every key is filled up front
// with anchorDists' exact distances, already resolved.
func (e *Engine) newAnchorOrder(uq socialnet.UserID, tr traversal, ck *roadnet.Checkpoint, ar *refineArena) *anchorOrder {
	ds := e.DS
	o := &anchorOrder{h: ar.anchorBuf(len(tr.candAnchors)), ck: ck}
	if t := e.poiLabels; t.ValidFor(ds.Road, len(ds.POIs)) {
		lbl, uqAt := e.userLabelWith(uq, ar), ds.Users[uq].At
		row, out := ar.rowBuf(1), ar.floatBuf(1)
		o.resolve = func(id model.POIID) float64 {
			row[0] = int32(id)
			return ds.Road.RowDistsCk(lbl, uqAt, t, row, math.Inf(1), out, ck)[0]
		}
		for i, a := range tr.candAnchors {
			o.h[i] = anchorEntry{key: tr.candLB[i] * (1 - 1e-9), id: a}
		}
	} else {
		duqs := e.anchorDists(uq, tr.candAnchors, ck, ar)
		for i, a := range tr.candAnchors {
			o.h[i] = anchorEntry{key: duqs[i], id: a, resolved: true}
		}
		o.resolved = len(o.h)
	}
	o.heapify()
	return o
}

// heapify establishes the heap order over o.h.
func (o *anchorOrder) heapify() {
	for i := len(o.h)/2 - 1; i >= 0; i-- {
		o.down(i)
	}
}

// next pops the next anchor in (duq, id) order, or reports false once that
// anchor's duq is +Inf or exceeds bound (or the checkpoint tripped while
// resolving). An unresolved top whose key already exceeds bound stops the
// order without being resolved.
func (o *anchorOrder) next(bound float64) (anchorEntry, bool) {
	for len(o.h) > 0 {
		top := &o.h[0]
		if math.IsInf(top.key, 1) || top.key > bound {
			return anchorEntry{}, false
		}
		if !top.resolved {
			top.key, top.resolved = o.resolve(top.id), true
			o.resolved++
			if o.ck.Stopped() {
				return anchorEntry{}, false
			}
			o.down(0)
			continue
		}
		ac := *top
		last := len(o.h) - 1
		o.h[0] = o.h[last]
		o.h = o.h[:last]
		o.down(0)
		o.pops++
		return ac, true
	}
	return anchorEntry{}, false
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
// Gated off once road edges have been appended — stored pivot rows then
// overestimate and the "lower bound" could prune a true companion
// (roadPivotSafe).
func (e *Engine) companionPruned(u socialnet.UserID, anchorRD []float64, bound float64) bool {
	return e.roadPivotSafe() && prunes(roadnet.LowerBound(e.userRDOf(u), anchorRD), bound)
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
// anchor, the anchor order's keys when the engine has no POI label table
// of its own. Under a label oracle (an engine sharing its dataset) this is
// one two-pointer merge of u_q's attachment label against each anchor's
// row of a table built on the spot; otherwise it is one uncached
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
