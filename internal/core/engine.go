package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/pagesim"
	"gpssn/internal/roadnet"
	"gpssn/internal/rtree"
	"gpssn/internal/socialnet"
)

// Options tune the engine; the zero value enables everything the paper
// proposes. The Disable* switches exist for the ablation benchmarks.
type Options struct {
	// DisableIndexPruning skips all node-level pruning (Section 4.2): the
	// traversal descends every node and only object-level pruning applies.
	DisableIndexPruning bool
	// DisableDistancePruning skips the pivot-based distance pruning (δ and
	// Lemma 5/7): candidates are filtered by score predicates only.
	DisableDistancePruning bool
	// Trace, when non-nil, receives a line-oriented log of the query's
	// phases: probe outcome, per-level candidate counts, δ evolution, and
	// refinement effort. For debugging and teaching; adds minor overhead.
	Trace io.Writer
	// Parallelism is the number of worker goroutines refinement fans
	// anchor candidates over (0 = runtime.GOMAXPROCS(0), 1 = sequential).
	// Any setting returns identical answers; see docs/CONCURRENCY.md and
	// docs/ALGORITHMS.md for the soundness and determinism arguments.
	Parallelism int
}

// Engine answers GP-SSN queries over a dataset through the I_R and I_S
// indexes (Algorithm 2 plus the refinement of Section 5).
//
// Concurrency: Query and QueryTopK may be called from any number of
// goroutines — they take the read side of mu and keep all per-query
// mutable state (I/O trackers, stats, trace buffer) in a query context.
// AddPOI, AddUser, and AddFriendship take the write side, so updates are
// serialized against in-flight queries. See docs/CONCURRENCY.md.
type Engine struct {
	DS     *model.Dataset
	Road   *index.RoadIndex
	Social *index.SocialIndex
	Opts   Options

	// mu is the query/update lock: queries hold it shared (indexes, the
	// dataset, and the dyn delta are read-only during a query), dynamic
	// updates hold it exclusively while appending to the delta stores.
	mu sync.RWMutex

	// traceMu serializes flushing per-query trace buffers to Opts.Trace,
	// so concurrent queries interleave whole traces, not lines.
	traceMu sync.Mutex

	// dyn tracks the main+delta boundaries for dynamic updates.
	dyn dynamicState

	// arenas recycles the per-worker refinement scratch (see arena.go).
	arenas arenaPool

	// poiLabels is the forward table of POI attachment hub labels: row i is
	// POI i's label. Built here when the attached oracle exposes labels,
	// appended to by AddPOI and dropped by the road mutations (the overlay
	// they install exposes none), all under mu's write side; queries read it
	// under the read side through poiRows, which checks it still answers
	// for the attached oracle and the current POI count.
	poiLabels *roadnet.LabelTable
}

// NewEngine wires a dataset with its two indexes.
func NewEngine(ds *model.Dataset, road *index.RoadIndex, social *index.SocialIndex, opts Options) *Engine {
	e := &Engine{DS: ds, Road: road, Social: social, Opts: opts}
	e.initDynamic()
	if ds.Road.HasLabels() {
		atts := make([]roadnet.Attach, len(ds.POIs))
		for i := range ds.POIs {
			atts[i] = ds.POIs[i].At
		}
		e.poiLabels = ds.Road.NewLabelTable(atts)
	}
	return e
}

// poiRows resolves POI ids to rows of a label table for the two label
// kernels: the engine's own table when it is valid, otherwise the same rows
// built on the spot for just these POIs — an engine wired before its oracle
// was attached, or one sharing its dataset with an engine that has since
// appended a POI. A nil table means no label oracle is attached; callers
// then search the graph instead. rows is arena scratch.
func (e *Engine) poiRows(ids []model.POIID, ar *refineArena) (*roadnet.LabelTable, []int32) {
	ds := e.DS
	if t := e.poiLabels; t.ValidFor(ds.Road, len(ds.POIs)) {
		rows := ar.rowBuf(len(ids))
		for i, id := range ids {
			rows[i] = int32(id)
		}
		return t, rows
	}
	if !ds.Road.HasLabels() {
		return nil, nil
	}
	rows, atts := ar.rowBuf(len(ids)), ar.attachBuf(len(ids))
	for i, id := range ids {
		atts[i] = ds.POIs[id].At
		rows[i] = int32(i)
	}
	return ds.Road.NewLabelTable(atts), rows
}

// POILabels returns the engine's POI label table, nil when none is held
// (no label oracle, or released by a road mutation). For telemetry and
// tests; the table must not be read concurrently with updates.
func (e *Engine) POILabels() *roadnet.LabelTable {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.poiLabels
}

// Result is a GP-SSN answer: the user group S (always containing the query
// issuer), the POI set R (the road ball of radius r around Anchor), and the
// minimized maximum user-POI road distance.
type Result struct {
	Found   bool
	S       []socialnet.UserID
	R       []model.POIID
	Anchor  model.POIID
	MaxDist float64
}

// Stats reports per-query cost and pruning-power counters; the experiment
// harness aggregates them into the paper's figures. Every counter —
// including PageReads — is accumulated in per-query state (see qctx), so
// concurrent queries never bleed into each other's numbers and Summary is
// correct by construction regardless of interleaving.
type Stats struct {
	CPUTime   time.Duration
	PageReads int64

	// Social-network side (users).
	SNUsersTotal          int
	SNIndexPruned         int // users under index nodes pruned (Lemmas 8, 9)
	SNIndexPrunedInterest int
	SNIndexPrunedDist     int
	SNObjPruned           int // leaf users pruned (Lemma 3, 4)
	SNObjPrunedInterest   int
	SNObjPrunedDist       int

	// Road-network side (POIs).
	RNPOIsTotal        int
	RNIndexPruned      int // POIs under index nodes pruned (Lemmas 6, 7)
	RNIndexPrunedMatch int
	RNIndexPrunedDist  int
	RNObjPruned        int // leaf POIs pruned (Lemmas 1, 5)
	RNObjPrunedMatch   int
	RNObjPrunedDist    int

	// Candidates surviving the traversal.
	CandUsers   int
	CandAnchors int
	// AnchorDistances counts the exact dist_RN(u_q, anchor) values
	// refinement computed to order the candidate anchors: every candidate
	// without the POI label table, only those reaching the lazy order's
	// front with it (≤ CandAnchors either way).
	AnchorDistances int

	// Refinement effort: user-POI group pairs actually evaluated, and the
	// total pair count C(m-1, τ-1)·n of the brute-force space (Fig 7(d)).
	PairsEvaluated int64
	PairsTotalLog2 float64 // log2 of the total pair count (it overflows)

	// SettledWork is the road-search work this query consumed (settled
	// vertices / merged label entries), counted only when a context or
	// budget armed the query's checkpoint; 0 otherwise.
	SettledWork int64
	// Truncated reports that a Params.Budget cut the search short: the
	// answer is the best fully-evaluated one, not necessarily optimal.
	Truncated bool
	// CacheHit is set by the facade when the answer was served from the
	// answer cache; the cost counters are zeroed then (no work was
	// replayed) and experiment aggregation excludes the query.
	CacheHit bool
}

// qctx is the per-query mutable state: stats, page-I/O trackers with their
// private cold buffer pools, and the trace buffer. One qctx belongs to one
// query; nothing in it is shared, which is what makes concurrent queries
// against a single Engine safe and their I/O accounting exact.
type qctx struct {
	st     *Stats
	road   *pagesim.Tracker
	social *pagesim.Tracker
	trace  *bytes.Buffer

	// Cancellation/budget state (see cancel.go). ctx is the caller's
	// context (context.Background() from the legacy entry points), ck the
	// cooperative checkpoint shared with the road-network searches — nil
	// unless the query is cancellable or budgeted, which keeps the plain
	// query path bit-identical to the unchecked engine.
	ctx        context.Context
	ck         *roadnet.Checkpoint
	maxAnchors int
	truncated  atomic.Bool

	// panicked holds the first panic captured on a refinement worker
	// goroutine (see panic.go); the pool re-raises it on the calling
	// goroutine once it drains.
	panicked atomic.Pointer[PanicError]
}

// newQctx allocates a query context with fresh cold-cache trackers (the
// same per-query I/O semantics the engine previously obtained by resetting
// the shared stores).
func (e *Engine) newQctx(st *Stats) *qctx {
	q := &qctx{
		st:     st,
		road:   e.Road.Store.NewTracker(),
		social: e.Social.Store.NewTracker(),
	}
	if e.Opts.Trace != nil {
		q.trace = &bytes.Buffer{}
	}
	return q
}

// tracef buffers a formatted trace line when tracing is enabled.
func (q *qctx) tracef(format string, args ...interface{}) {
	if q.trace == nil {
		return
	}
	fmt.Fprintf(q.trace, format+"\n", args...)
}

// finish stamps the timing/I/O totals and flushes the trace buffer in one
// piece (so traces of concurrent queries do not interleave line by line).
func (e *Engine) finish(q *qctx, start time.Time, p Params) {
	q.st.CPUTime = time.Since(start)
	q.st.PageReads = q.road.Reads() + q.social.Reads()
	q.st.SettledWork = q.ck.Spent()
	q.st.PairsTotalLog2 = pairsTotalLog2(len(e.DS.Users)-1, p.Tau-1, len(e.DS.POIs))
	if q.trace != nil && e.Opts.Trace != nil {
		e.traceMu.Lock()
		e.Opts.Trace.Write(q.trace.Bytes())
		e.traceMu.Unlock()
	}
}

// Query answers a GP-SSN query for issuer uq under parameters p. Safe for
// concurrent use: any number of goroutines may query one Engine, each call
// gets its own isolated Stats and cold-cache I/O accounting.
func (e *Engine) Query(uq socialnet.UserID, p Params) (Result, Stats, error) {
	return e.QueryCtx(context.Background(), uq, p)
}

// QueryCtx is Query with cooperative cancellation: the traversal checks the
// context at anchor-candidate granularity, refinement per work item, and
// the road-network searches every few hundred settled vertices, so a
// cancel or deadline aborts promptly at any Parallelism. A cancelled query
// returns an error matching both ErrCancelled/ErrDeadlineExceeded and the
// context's own sentinel via errors.Is, with the partial Stats intact.
// A Params.Budget instead degrades gracefully (see Budget). With a
// background context and no budget the answer is bit-identical to Query's.
func (e *Engine) QueryCtx(ctx context.Context, uq socialnet.UserID, p Params) (Result, Stats, error) {
	var st Stats
	if err := p.Validate(e.Road.RMin, e.Road.RMax); err != nil {
		return Result{}, st, err
	}
	if uq < 0 || int(uq) >= len(e.DS.Users) {
		return Result{}, st, fmt.Errorf("core: query user %d out of range", uq)
	}
	if err := ContextError(ctx); err != nil {
		return Result{MaxDist: math.Inf(1)}, st, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	start := time.Now()
	q := e.newQctx(&st)
	q.arm(ctx, p.Budget)

	st.SNUsersTotal = len(e.DS.Users)
	st.RNPOIsTotal = len(e.DS.POIs)

	// A cheap feasibility probe around the issuer's nearest anchors seeds
	// the pruning threshold δ with the cost of a verified feasible
	// solution, so distance pruning is armed from the first index level.
	probe := e.probe(uq, p, q)
	q.tracef("probe: found=%v cost=%.4f", probe.Found, probe.MaxDist)
	trav := e.traverse(uq, p, 1, probe.MaxDist, q)
	q.tracef("traversal: %d candidate users, %d candidate anchors, delta=%.4f",
		len(trav.candUsers), len(trav.candAnchors), trav.delta)
	var res []Result
	if !q.cancelled() {
		res = e.refine(uq, p, 1, trav, probe, q)
		q.tracef("refined: pairs evaluated=%d", st.PairsEvaluated)
	}

	e.finish(q, start, p)
	if err := q.cancelErr(); err != nil {
		return Result{MaxDist: math.Inf(1)}, st, err
	}
	st.Truncated = q.wasTruncated()
	if len(res) == 0 {
		return Result{MaxDist: math.Inf(1)}, st, nil
	}
	return res[0], st, nil
}

// QueryTopK returns up to k GP-SSN answers with distinct anchor POIs, in
// increasing maximum-distance order — the top-k extension listed in
// DESIGN.md. k = 1 is exactly Query. Distance pruning adapts its threshold
// δ to the k-th best known upper bound so no top-k member is lost. Safe
// for concurrent use, like Query.
func (e *Engine) QueryTopK(uq socialnet.UserID, p Params, k int) ([]Result, Stats, error) {
	return e.QueryTopKCtx(context.Background(), uq, p, k)
}

// QueryTopKCtx is QueryTopK with cooperative cancellation and budgeting,
// under the same contract as QueryCtx.
func (e *Engine) QueryTopKCtx(ctx context.Context, uq socialnet.UserID, p Params, k int) ([]Result, Stats, error) {
	var st Stats
	if k < 1 {
		return nil, st, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if err := p.Validate(e.Road.RMin, e.Road.RMax); err != nil {
		return nil, st, err
	}
	if uq < 0 || int(uq) >= len(e.DS.Users) {
		return nil, st, fmt.Errorf("core: query user %d out of range", uq)
	}
	if err := ContextError(ctx); err != nil {
		return nil, st, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	start := time.Now()
	q := e.newQctx(&st)
	q.arm(ctx, p.Budget)
	st.SNUsersTotal = len(e.DS.Users)
	st.RNPOIsTotal = len(e.DS.POIs)

	probe := e.probe(uq, p, q)
	delta0 := math.Inf(1)
	if k == 1 {
		delta0 = probe.MaxDist
	}
	trav := e.traverse(uq, p, k, delta0, q)
	var res []Result
	if !q.cancelled() {
		res = e.refine(uq, p, k, trav, probe, q)
	}

	e.finish(q, start, p)
	if err := q.cancelErr(); err != nil {
		return nil, st, err
	}
	st.Truncated = q.wasTruncated()
	return res, st, nil
}

// traversal is the intermediate state Algorithm 2 hands to refinement.
// candLB[i] is the Lemma 5 pivot lower bound on dist_RN(u_q, candAnchors[i])
// the traversal computed for its δ test, 0 where none was computed (delta
// POIs, unsafe road pivots, DisableDistancePruning); refinement keys its
// lazy anchor order by it.
type traversal struct {
	candUsers   []socialnet.UserID
	candAnchors []model.POIID
	candLB      []float64
	delta       float64
}

// traverse runs Algorithm 2's synchronized index traversal: I_S level by
// level with user pruning, I_R via a min-heap keyed by distance lower
// bounds, maintaining the pruning threshold δ.
func (e *Engine) traverse(uq socialnet.UserID, p Params, k int, initDelta float64, q *qctx) traversal {
	st := q.st
	uqUser := e.DS.User(uq)
	region := NewPruneRegion(uqUser.Interests, p.Gamma)
	uqRD := e.userRDOf(uq)
	// Hop-pivot pruning is sound only while u_q's own stored hop vector is
	// valid (u_q indexed and untouched by new edges).
	uqHopSafe := e.pivotPruningSafe(uq)
	var uqHops []int32
	if uqHopSafe {
		uqHops = e.Social.UserHops(uq)
	}
	h := e.Road.Pivots.NumPivots()

	tr := traversal{delta: math.Inf(1)}
	guardUBs := newKSmallest(k)
	if !e.Opts.DisableDistancePruning && !math.IsInf(initDelta, 1) {
		tr.delta = guardUBs.push(initDelta)
	}

	// The nodes on u_q's root-to-leaf path must never be pruned (u_q ∈ S
	// by definition); mark them once.
	uqPath := map[*index.SNode]bool{}
	markUQPath(e.Social.Root, uq, uqPath)
	// Nodes containing users whose hop bounds were invalidated by new
	// friendship edges must not be distance-pruned.
	hopUnsafePath := map[*index.SNode]bool{}
	for u := range e.dyn.touched {
		markUQPath(e.Social.Root, u, hopUnsafePath)
	}

	// S_cand: current frontier of I_S nodes, plus users already collected
	// from processed leaves. Delta users join up front so every δ-guard
	// evaluation covers them.
	sNodes := []*index.SNode{e.Social.Root}
	e.Social.AccessTracked(e.Social.Root, q.social)
	e.scanDeltaUsers(uq, p, region, &tr)

	// maxUbRD[k] = max over S_cand entries of ub dist_RN(·, rp_k); feeds
	// Eq. (16). Recomputed after every I_S level.
	maxUbRD := make([]float64, h)
	recomputeMaxUb := func() {
		for k := 0; k < h; k++ {
			maxUbRD[k] = uqRD[k] // u_q is always in S
		}
		for _, n := range sNodes {
			for k := 0; k < h; k++ {
				if n.UbRD[k] > maxUbRD[k] {
					maxUbRD[k] = n.UbRD[k]
				}
			}
		}
		for _, u := range tr.candUsers {
			rd := e.userRDOf(u)
			for k := 0; k < h; k++ {
				if rd[k] > maxUbRD[k] {
					maxUbRD[k] = rd[k]
				}
			}
		}
	}
	recomputeMaxUb()

	// guardMatch reports whether every surviving S_cand entry provably
	// θ-matches the ball ⊙(anchor, r) — the feasibility condition that
	// makes δ updates sound (the Eq. 18 lower bound over sub_K).
	guardMatch := func(sub TopicSet) bool {
		if MatchScoreSet(uqUser.Interests, sub) < p.Theta {
			return false
		}
		for _, n := range sNodes {
			if matchLbMBR(n.LbW, sub) < p.Theta {
				return false
			}
		}
		for _, u := range tr.candUsers {
			if MatchScoreSet(e.DS.Users[u].Interests, sub) < p.Theta {
				return false
			}
		}
		return true
	}

	// I_R heap seeded with the root (Algorithm 2 lines 2-3).
	heap := []heapEntry{{node: e.Road.Tree.Root(), key: 0}}
	e.Road.AccessTracked(e.Road.Tree.Root(), q.road)

	// processRNLevel pops every entry of the current heap, applies the
	// node/object pruning, and returns the next level's heap (Algorithm 2
	// lines 11-26).
	processRNLevel := func(cur []heapEntry) []heapEntry {
		sortHeap(cur)
		var next []heapEntry
		// Road pivot LOWER bounds are unsound once a road edge has been
		// appended (new edges only shorten distances, so stored rows can
		// overestimate); every lower-bound prune below gates on roadLB.
		// Upper-bound uses (the δ update) stay sound and stay on.
		roadLB := e.roadPivotSafe()
		for i, he := range cur {
			// Cancellation is polled at anchor-candidate granularity: once
			// per heap entry and per leaf POI below. A cancelled traversal
			// just stops expanding — the query errors out afterwards, so a
			// short candidate list is never observable as an answer.
			if q.cancelled() {
				return nil
			}
			if !e.Opts.DisableDistancePruning && roadLB && prunes(he.key, tr.delta) {
				// Lines 13-14: everything remaining is prunable.
				for _, rest := range cur[i:] {
					cnt := e.Road.Meta(rest.node).POICount
					st.RNIndexPruned += cnt
					st.RNIndexPrunedDist += cnt
				}
				break
			}
			n := he.node
			if n.IsLeaf() {
				for _, ent := range n.Entries() {
					if q.cancelled() {
						return nil
					}
					id := model.POIID(ent.ID)
					// Both rules are evaluated on every leaf POI — the
					// object is pruned when either fires, and each rule's
					// power is counted independently, which is how
					// Fig. 7(c) reports them. Matching: Lemma 1 via the
					// hashed V_sup signature (a sound overestimate).
					// Distance: Lemma 5 via the pivot lower bound vs δ.
					matchPrune := matchUbVec(uqUser.Interests, e.Road.POISupVec(id)) < p.Theta
					lb, distPrune := 0.0, false
					if !e.Opts.DisableDistancePruning && roadLB {
						lb = roadnet.LowerBound(uqRD, e.Road.POIDist(id))
						distPrune = prunes(lb, tr.delta)
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
					tr.candAnchors = append(tr.candAnchors, id)
					tr.candLB = append(tr.candLB, lb)
					// δ update (line 20), guarded by the Eq. 18
					// feasibility lower bound over sub_K. For top-k, δ is
					// the k-th smallest feasible upper bound seen, so the
					// k best anchors all survive.
					if !e.Opts.DisableDistancePruning && guardMatch(e.Road.POISub(id, p.R)) {
						ub := math.Inf(1)
						pd := e.Road.POIDist(id)
						for kk := 0; kk < h; kk++ {
							if v := maxUbRD[kk] + pd[kk]; v < ub {
								ub = v
							}
						}
						tr.delta = guardUBs.push(ub + p.R)
					}
				}
				continue
			}
			for _, ent := range n.Entries() {
				child := ent.Child
				m := e.Road.Meta(child)
				if !e.Opts.DisableIndexPruning {
					// Lemma 6: matching score pruning for index nodes.
					if matchUbVec(uqUser.Interests, m.SupVec) < p.Theta {
						st.RNIndexPruned += m.POICount
						st.RNIndexPrunedMatch += m.POICount
						continue
					}
					if !e.Opts.DisableDistancePruning && roadLB {
						// Lemma 7 / Eq. 17: distance lower bound vs δ.
						if prunes(nodeDistLb(uqRD, m.LbDist, m.UbDist), tr.delta) {
							st.RNIndexPruned += m.POICount
							st.RNIndexPrunedDist += m.POICount
							continue
						}
					}
				}
				e.Road.AccessTracked(child, q.road)
				next = append(next, heapEntry{node: child, key: nodeDistLb(uqRD, m.LbDist, m.UbDist)})
			}
		}
		return next
	}

	// Synchronized top-down sweep (Algorithm 2 lines 4-26).
	for level := e.Social.Height() - 1; level >= 0; level-- {
		if q.cancelled() {
			return tr
		}
		var nextNodes []*index.SNode
		for _, n := range sNodes {
			if n.IsLeaf() {
				// Object-level user pruning (Section 3.2).
				for _, u := range n.Users {
					if u == uq {
						continue // the issuer is handled separately
					}
					// Both rules are evaluated on every leaf user — the
					// user is pruned when either fires, and each rule's
					// power is counted independently, which is how
					// Fig. 7(b) reports them. Interest: Lemma 3 /
					// Corollary 1. Social distance: Lemma 4.
					interestPrune := interestPrunable(p, region, uqUser.Interests, e.DS.Users[u].Interests)
					distPrune := false
					if uqHopSafe && e.pivotPruningSafe(u) {
						lb, okHop := socialnet.HopLowerBound(e.Social.UserHops(u), uqHops)
						distPrune = !okHop || lb >= int32(p.Tau)
					}
					if interestPrune {
						st.SNObjPrunedInterest++
					}
					if distPrune {
						st.SNObjPrunedDist++
					}
					if interestPrune || distPrune {
						st.SNObjPruned++
						continue
					}
					tr.candUsers = append(tr.candUsers, u)
				}
				continue
			}
			for _, c := range n.Children {
				if !e.Opts.DisableIndexPruning && !uqPath[c] {
					// Lemma 8: interest score pruning for I_S nodes.
					if indexInterestPrunable(p, region, uqUser.Interests, c) {
						st.SNIndexPruned += c.UserCount
						st.SNIndexPrunedInterest += c.UserCount
						continue
					}
					// Lemma 9: social distance pruning for I_S nodes
					// (disabled for nodes holding hop-invalidated users).
					if uqHopSafe && !hopUnsafePath[c] {
						if lb, informative := e.Social.HopLowerBoundToNode(uqHops, c); informative && lb >= int32(p.Tau) {
							st.SNIndexPruned += c.UserCount
							st.SNIndexPrunedDist += c.UserCount
							continue
						}
					}
				}
				e.Social.AccessTracked(c, q.social)
				nextNodes = append(nextNodes, c)
			}
		}
		sNodes = nextNodes
		recomputeMaxUb()
		heap = processRNLevel(heap)
		q.tracef("level %d: S_cand nodes=%d users=%d, H_R entries=%d, delta=%.4f",
			level, len(sNodes), len(tr.candUsers), len(heap), tr.delta)
	}

	// Lines 27-28: finish any remaining I_R levels.
	for len(heap) > 0 && !q.cancelled() {
		heap = processRNLevel(heap)
	}
	// Main+delta: POIs appended after the index build become anchors.
	e.scanDeltaAnchors(&tr)
	return tr
}

// interestPrunable applies the user interest pruning for the configured
// metric: the paper's pruning region for the dot product (in its score
// form, the same predicate refinement and Baseline check), and a direct
// similarity threshold test otherwise.
func interestPrunable(p Params, region *PruneRegion, anchor, w []float64) bool {
	if p.Metric == MetricDotProduct {
		return region.Contains(w)
	}
	return Similarity(p.Metric, anchor, w) < p.Gamma
}

// indexInterestPrunable is the node-level form (Lemma 8).
func indexInterestPrunable(p Params, region *PruneRegion, anchor []float64, n *index.SNode) bool {
	if p.Metric == MetricDotProduct {
		return region.ContainsMBR(n.LbW, n.UbW)
	}
	return SimilarityUpperBound(p.Metric, anchor, n.LbW, n.UbW) < p.Gamma
}

// markUQPath marks the nodes on the root-to-leaf path of u_q. It returns
// whether u_q lives under n.
func markUQPath(n *index.SNode, uq socialnet.UserID, path map[*index.SNode]bool) bool {
	if n.IsLeaf() {
		for _, u := range n.Users {
			if u == uq {
				path[n] = true
				return true
			}
		}
		return false
	}
	for _, c := range n.Children {
		if markUQPath(c, uq, path) {
			path[n] = true
			return true
		}
	}
	return false
}

// matchUbVec is Eq. (15): the matching score upper bound through a hashed
// V_sup signature (collisions only raise the bound, keeping it sound).
func matchUbVec(interests []float64, sup interface{ TestKeyword(int) bool }) float64 {
	s := 0.0
	for f, p := range interests {
		if p != 0 && sup.TestKeyword(f) {
			s += p
		}
	}
	return s
}

// matchLbMBR lower-bounds min over users under a node of Match(u, sub):
// Σ_f lbW[f]·χ(f ∈ sub).
func matchLbMBR(lbW []float64, sub TopicSet) float64 {
	s := 0.0
	for f, p := range lbW {
		if p > 0 && sub.Has(f) {
			s += p
		}
	}
	return s
}

// nodeDistLb is Eq. (17): the pivot lower bound of dist_RN between the
// query user and any POI under a node with per-pivot bounds [lb, ub].
func nodeDistLb(uqRD, lb, ub []float64) float64 {
	best := 0.0
	for k := range uqRD {
		d := uqRD[k]
		var v float64
		switch {
		case d < lb[k]:
			v = lb[k] - d
		case d > ub[k]:
			v = d - ub[k]
		default:
			v = 0
		}
		if v > best {
			best = v
		}
	}
	return best
}

// prunes reports whether a derived road lower bound lb rules a candidate
// out against bound. Pivot bounds (Lemmas 5 and 7, the I_R heap key, the
// companion test) and δ itself are sums of independently rounded floats,
// so a bound whose true value equals an exact tied cost can land an ulp
// above it; a bare lb > bound would then drop a tied candidate depending
// on which tie set the bound first, i.e. on worker timing. The relative
// slack of 1e-9 is far above that rounding and far below any real gap.
// Bounds are ≥ 0, and +Inf stays +Inf. Comparisons between two exact
// costs (the keeper, enumerateGroups, the duq cut-off) stay strict and
// never go through here.
func prunes(lb, bound float64) bool { return lb > bound*(1+1e-9) }

// kSmallest tracks the k smallest values pushed; its threshold (the k-th
// smallest, or +Inf until k values arrive) is the top-k pruning bound δ.
type kSmallest struct {
	k    int
	vals []float64 // sorted ascending, at most k
}

func newKSmallest(k int) *kSmallest { return &kSmallest{k: k} }

// push inserts v and returns the current threshold.
func (s *kSmallest) push(v float64) float64 {
	pos := len(s.vals)
	for pos > 0 && s.vals[pos-1] > v {
		pos--
	}
	s.vals = append(s.vals, 0)
	copy(s.vals[pos+1:], s.vals[pos:])
	s.vals[pos] = v
	if len(s.vals) > s.k {
		s.vals = s.vals[:s.k]
	}
	return s.threshold()
}

func (s *kSmallest) threshold() float64 {
	if len(s.vals) < s.k {
		return math.Inf(1)
	}
	return s.vals[s.k-1]
}

// heapEntry is an I_R traversal frontier entry: a node and its distance
// lower bound key (Algorithm 2's min-heap H_R).
type heapEntry struct {
	node *rtree.Node
	key  float64
}

// sortHeap orders heap entries by ascending key (the level-local
// equivalent of popping a min-heap until empty).
func sortHeap(h []heapEntry) {
	// Insertion sort: levels are small and nearly sorted.
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && h[j].key < h[j-1].key; j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}

// pairsTotalLog2 returns log2(C(m, k) · n), the size of the brute-force
// search space of user-POI group pairs.
func pairsTotalLog2(m, k, n int) float64 {
	if k < 0 || k > m {
		return math.Log2(float64(n))
	}
	lg := 0.0
	for i := 0; i < k; i++ {
		lg += math.Log2(float64(m-i)) - math.Log2(float64(i+1))
	}
	return lg + math.Log2(float64(n))
}

// Summary renders the per-query statistics as a compact human-readable
// report (the gpssn-query CLI and debugging sessions print it).
func (s Stats) Summary() string {
	snTotal := s.SNIndexPruned + s.SNObjPruned
	rnTotal := s.RNIndexPruned + s.RNObjPruned
	return fmt.Sprintf(
		"cpu=%v io=%d | users: %d pruned of %d (index %d, object %d) -> %d candidates | "+
			"POIs: %d pruned of %d (index %d, object %d) -> %d anchors | pairs evaluated %d",
		s.CPUTime, s.PageReads,
		snTotal, s.SNUsersTotal, s.SNIndexPruned, s.SNObjPruned, s.CandUsers,
		rnTotal, s.RNPOIsTotal, s.RNIndexPruned, s.RNObjPruned, s.CandAnchors,
		s.PairsEvaluated)
}
