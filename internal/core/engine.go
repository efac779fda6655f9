package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gpssn/internal/failpoint"
	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// Options tune the engine; the zero value enables everything the paper
// proposes. The Disable* switches exist for the ablation benchmarks.
type Options struct {
	// DisableIndexPruning skips all node-level pruning (Section 4.2,
	// Lemmas 6-9): both traversals descend every node (the anchor stream
	// keys every I_R node 0) and only object-level pruning applies.
	DisableIndexPruning bool
	// DisableDistancePruning skips the pivot-based road distance bounds
	// (Lemmas 5 and 7): the anchor stream keys every node and unresolved
	// anchor 0 and prunes none of them against the keeper's bound;
	// candidates are filtered by score predicates and the exact stop rule.
	DisableDistancePruning bool
	// Trace, when non-nil, receives a line-oriented log of the query's
	// phases: probe outcome, per-level I_S candidate counts, the anchor
	// stream's work, and refinement effort. For debugging and teaching;
	// adds minor overhead.
	Trace io.Writer
	// Parallelism is the number of worker goroutines refinement fans
	// anchor candidates over (0 = runtime.GOMAXPROCS(0), 1 = sequential);
	// at 2 or more the front half's social half also runs on its own
	// goroutine (front). Any setting returns identical answers; see
	// docs/CONCURRENCY.md and docs/ALGORITHMS.md for the soundness and
	// determinism arguments.
	Parallelism int
}

// Engine answers GP-SSN queries over a dataset through the I_R and I_S
// indexes (Algorithm 2 plus the refinement of Section 5).
//
// Concurrency: Query and QueryTopK may be called from any number of
// goroutines — they take the read side of mu and keep all per-query
// mutable state (I/O trackers, stats, trace buffer) in a query context.
// The dynamic updates — AddPOI, AddUser and AddFriendship, and the road
// mutations AddRoadVertex and AddRoadEdge — take the write side, so
// updates are serialized against in-flight queries. See
// docs/CONCURRENCY.md.
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

	// topics is the user topic table every interest and matching score
	// reads (usertopics.go): built here over the dataset's users, indexed
	// ones in I_S leaf order, and appended to by AddUser under mu's write
	// side. It covers exactly the users this engine has seen, so users
	// must be appended through the engine that queries them; AddUser
	// refuses a user another engine's append left it no row for.
	topics *userTopics

	// poiLabels is the forward table of POI attachment hub labels of the
	// road graph's base: row i is POI i's label. Built here when a label
	// oracle serves the base, appended to by AddPOI under mu's write side,
	// and kept across road mutations (its distances are checked by the
	// clearance rule, pending.go); queries read it under the read side
	// through labelTable, which checks it still answers for the base's
	// oracle and the current POI count.
	poiLabels *roadnet.LabelTable
}

// NewEngine wires a dataset with its two indexes.
func NewEngine(ds *model.Dataset, road *index.RoadIndex, social *index.SocialIndex, opts Options) *Engine {
	e := &Engine{DS: ds, Road: road, Social: social, Opts: opts}
	e.initDynamic()
	e.topics = newUserTopics(ds, social)
	if ds.Road.HasLabels() {
		atts := make([]roadnet.Attach, len(ds.POIs))
		for i := range ds.POIs {
			atts[i] = ds.POIs[i].At
		}
		e.poiLabels = ds.Road.NewLabelTable(atts)
	}
	return e
}

// labelTable returns the engine's POI label table when it is valid — it
// answers for the base's oracle and has a row for every POI — and nil
// otherwise: no label oracle, an engine wired before its oracle was
// attached, or one sharing its dataset with an engine that has since
// appended a POI. It is the one predicate that picks the kernel of every
// user-POI pair a query prices, in the anchor stream and in M(u) alike:
// row merges with the table, DistAttachWithinCk without.
func (e *Engine) labelTable() *roadnet.LabelTable {
	if t := e.poiLabels; t.ValidFor(e.DS.Road, len(e.DS.POIs)) {
		return t
	}
	return nil
}

// POILabels returns the engine's POI label table, nil when none is held
// (no label oracle, or dropped when another engine's update left it
// behind). For telemetry and tests; the table must not be read
// concurrently with updates.
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

	// Candidates: the users surviving the social half, and the anchor POIs
	// that entered refinement's anchor stream (those its stop left
	// unexpanded count under RNIndexPrunedDist, so RNIndexPruned +
	// RNObjPruned + CandAnchors = RNPOIsTotal on a completed query).
	CandUsers   int
	CandAnchors int
	// AnchorDistances counts the exact dist_RN(u_q, anchor) values the
	// anchor stream computed: one per anchor that reached its front, under
	// every oracle (≤ CandAnchors).
	AnchorDistances int
	// AnchorsThetaFailed counts the anchors refinement popped and built a
	// road ball for whose ball u_q does not θ-match: work the matching
	// bounds of Lemmas 1/6 did not save.
	AnchorsThetaFailed int
	// AnchorsReachFailed counts the anchors whose ball u_q θ-matches
	// within the bound but whose companion search leaves fewer than τ-1
	// companions after its θ, pivot and cost gates: dead before any group
	// is enumerated.
	AnchorsReachFailed int
	// AnchorsSameBall counts the anchors refinement popped whose ball
	// repeats one an earlier anchor of the query already holds: each
	// replays that ball's outcome instead of refining it again. The two
	// counters above count replays too.
	AnchorsSameBall int
	// AnchorsNearPortal counts the anchors refinement popped whose ball
	// came within the radius of an old portal while road edges were
	// pending, so the clearance rule sent it down the delta-overlay path
	// instead of the base oracle's (pending.go).
	AnchorsNearPortal int
	// MEvaluations counts the M(u) evaluations the companion search ran:
	// one per user it reached that passed θ and the pivot test (u_q's own,
	// and the greedy seeding's, excluded).
	MEvaluations int64

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

// qctx is the per-query mutable state: stats, the index node counters
// and the trace buffer. One qctx belongs to one query; nothing in it is
// shared, which is what makes concurrent queries against a single Engine
// safe and their I/O accounting exact.
type qctx struct {
	st *Stats
	// roadNodes and socialNodes count the I_R and I_S nodes the query
	// reads. A node fills one page, each query starts cold and reads a
	// node at most once, so their sum is the query's page reads. The
	// social half writes socialNodes; the front's road side and then the
	// anchor stream, under orderMu, write roadNodes (docs/CONCURRENCY.md
	// §2 and §3).
	roadNodes, socialNodes int64
	trace                  *bytes.Buffer

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

// newQctx allocates a query context.
func (e *Engine) newQctx(st *Stats) *qctx {
	q := &qctx{st: st}
	if e.Opts.Trace != nil {
		q.trace = &bytes.Buffer{}
	}
	return q
}

// tracef buffers a formatted trace line when tracing is enabled.
func (q *qctx) tracef(format string, args ...interface{}) { tracef(q.trace, format, args...) }

// tracef writes a formatted trace line into buf; a nil buf (tracing off)
// drops it.
func tracef(buf *bytes.Buffer, format string, args ...interface{}) {
	if buf == nil {
		return
	}
	fmt.Fprintf(buf, format+"\n", args...)
}

// finish stamps the timing/I/O totals and flushes the trace buffer in one
// piece (so traces of concurrent queries do not interleave line by line).
func (e *Engine) finish(q *qctx, start time.Time, p Params) {
	q.st.CPUTime = time.Since(start)
	q.st.PageReads = q.roadNodes + q.socialNodes
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
	res, st, err := e.run(ctx, uq, p, 1)
	if err != nil || len(res) == 0 {
		return Result{MaxDist: math.Inf(1)}, st, err
	}
	return res[0], st, nil
}

// QueryTopK returns up to k GP-SSN answers with distinct anchor POIs, in
// increasing maximum-distance order — the top-k extension listed in
// DESIGN.md. k = 1 is exactly Query; for any k the anchor stream prunes
// against the keeper's k-th best cost. Safe for concurrent use, like
// Query.
func (e *Engine) QueryTopK(uq socialnet.UserID, p Params, k int) ([]Result, Stats, error) {
	return e.QueryTopKCtx(context.Background(), uq, p, k)
}

// QueryTopKCtx is QueryTopK with cooperative cancellation and budgeting,
// under the same contract as QueryCtx.
func (e *Engine) QueryTopKCtx(ctx context.Context, uq socialnet.UserID, p Params, k int) ([]Result, Stats, error) {
	if k < 1 {
		return nil, Stats{}, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	return e.run(ctx, uq, p, k)
}

// run is the query both entry points share: the front half (front), then
// refinement keeping the k best answers. Results are nil on error.
func (e *Engine) run(ctx context.Context, uq socialnet.UserID, p Params, k int) ([]Result, Stats, error) {
	var st Stats
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

	// The query arena ar holds the candidates and their friendship graph
	// from the social half to the end of refinement; the road arena rar
	// holds the probe's scratch and then the anchor stream with u_q's
	// label. Two arenas, because the front fills them on two goroutines at
	// Parallelism ≥ 2.
	ar, rar := e.acquireArena(), e.acquireArena()
	defer e.releaseArena(ar)
	defer e.releaseArena(rar)
	keeper := newSharedKeeper(k)
	order := e.front(uq, p, keeper, q, ar, rar)
	q.tracef("traversal: %d candidate users", st.CandUsers)
	var res []Result
	if !q.cancelled() {
		res = e.refine(uq, p, ar, keeper, order, q)
		q.tracef("refined: pairs evaluated=%d", st.PairsEvaluated)
	}

	e.finish(q, start, p)
	if err := q.cancelErr(); err != nil {
		return nil, st, err
	}
	st.Truncated = q.wasTruncated()
	return res, st, nil
}

// parallelism resolves Opts.Parallelism: 0 means runtime.GOMAXPROCS(0).
func (e *Engine) parallelism() int {
	if par := e.Opts.Parallelism; par > 0 {
		return par
	}
	return runtime.GOMAXPROCS(0)
}

// front runs the query's front half: the social half (socialHalf: the
// I_S pass, the hop filter and the candidate graph, built in ar) beside
// the road side, which runs the probe, seeds keeper with its answer, and
// builds the anchor stream (newAnchorOrder, in rar) settled at the
// keeper's bound up to its first anchor — the work refinement's first
// claim would otherwise do after the join. At Parallelism ≥ 2 the social
// half runs on its own goroutine; at 1 both run inline, social half
// first. The two share no state: the social half writes only the SN*
// counters, CandUsers and q.socialNodes, the road side only the RN*
// counters and q.roadNodes (docs/CONCURRENCY.md §3).
func (e *Engine) front(uq socialnet.UserID, p Params, keeper *sharedKeeper, q *qctx, ar, rar *refineArena) *anchorOrder {
	var socialTrace *bytes.Buffer
	if q.trace != nil {
		socialTrace = &bytes.Buffer{}
	}
	var done chan struct{}
	if e.parallelism() > 1 {
		done = make(chan struct{})
		// Deferred as well, so a panic on the road side still waits for
		// the social half before the caller releases ar and the lock.
		defer func() { <-done }()
		go func() {
			defer close(done)
			// A panic here would kill the process whatever the caller
			// recovers: capture it for the join to re-raise.
			defer q.capturePanic()
			e.socialHalf(uq, p, q, ar, socialTrace)
		}()
	} else {
		e.socialHalf(uq, p, q, ar, socialTrace)
	}

	probe := e.probe(uq, p, q, rar)
	q.tracef("probe: found=%v cost=%.4f", probe.Found, probe.MaxDist)
	if probe.Found {
		keeper.add(probe) // feasible: a sound incumbent
	}
	order := e.newAnchorOrder(uq, p, q, rar)
	order.settle(keeper.Bound())

	if done != nil {
		<-done
		q.rethrow()
	}
	if socialTrace != nil {
		q.trace.Write(socialTrace.Bytes())
	}
	return order
}

// socialHalf is the query's social half: Algorithm 2's I_S pass, level by
// level with the node rules (Lemmas 8, 9) and the leaf user tests (Lemmas
// 3, 4), then the exact user filter of line 29 — hop distance within τ-1
// of u_q — and the friendship graph over the survivors, built in ar.cg.
// It needs nothing from the road side. It writes only the SN* counters,
// CandUsers and q.socialNodes, and traces into trace
// (nil when tracing is off).
func (e *Engine) socialHalf(uq socialnet.UserID, p Params, q *qctx, ar *refineArena, trace *bytes.Buffer) {
	// Deterministic invariant-panic injection for the robustness matrix,
	// on the goroutine the social half runs on.
	if _, ok := failpoint.Eval("core.social.panic"); ok {
		panic("core: failpoint-injected social-half panic")
	}
	st := q.st
	ds := e.DS
	uqUser := ds.User(uq)
	region := NewPruneRegion(uqUser.Interests, p.Gamma)
	uqRow := e.topics.user(uq)
	// The nodes on u_q's root-to-leaf path must never be pruned (u_q ∈ S
	// by definition): they are the nodes whose leaf range holds u_q's
	// position. A delta issuer is on no path.
	uqPos := -1
	if int(uq) < e.dyn.indexedUsers {
		uqPos = e.Social.Pos(uq)
	}
	// Hop-pivot pruning is sound only while u_q's own stored hop vector is
	// valid (u_q indexed and untouched by new edges); nil disables it.
	var uqHops []int32
	if e.pivotPruningSafe(uq) {
		uqHops = e.Social.HopsAt(uqPos)
	}
	// S_cand: current frontier of I_S nodes, plus users already collected
	// from processed leaves. Delta users (appended after the index build)
	// are scanned up front.
	sNodes := []*index.SNode{e.Social.Root}
	q.socialNodes++
	users := e.scanDeltaUsers(uq, p, uqRow, nil)

	// Top-down sweep (Algorithm 2 lines 4-10). A cancelled sweep just
	// stops: the query errors out before refinement reads the graph.
	for level := e.Social.Height() - 1; level >= 0 && !q.cancelled(); level-- {
		var nextNodes []*index.SNode
		for _, n := range sNodes {
			if n.IsLeaf() {
				users = e.leafUsers(n, uq, p, uqRow, uqHops, st, users)
				continue
			}
			for _, c := range n.Children {
				if !e.Opts.DisableIndexPruning && !c.Holds(uqPos) {
					// Lemma 8: interest score pruning for I_S nodes.
					if indexInterestPrunable(p, region, uqUser.Interests, c) {
						st.SNIndexPruned += c.UserCount
						st.SNIndexPrunedInterest += c.UserCount
						continue
					}
					// Lemma 9: social distance pruning for I_S nodes
					// (disabled for nodes holding hop-invalidated users).
					if uqHops != nil && !e.hopUnsafe(c) {
						if lb, informative := e.Social.HopLowerBoundToNode(uqHops, c); informative && lb >= int32(p.Tau) {
							st.SNIndexPruned += c.UserCount
							st.SNIndexPrunedDist += c.UserCount
							continue
						}
					}
				}
				q.socialNodes++
				nextNodes = append(nextNodes, c)
			}
		}
		sNodes = nextNodes
		tracef(trace, "I_S level %d: S_cand nodes=%d users=%d", level, len(sNodes), len(users))
	}

	// Exact user filtering (line 29): hop distance within τ-1 of u_q. The
	// exact interest test (similarity >= γ) already ran on every candidate
	// above — interestPrunable is that very predicate.
	hops := ar.hopsWithin(ds.Social, uq, int32(p.Tau-1))
	cand := ar.userBuf(len(users))[:0]
	for _, u := range users {
		if hops[u] == socialnet.Unreachable {
			st.SNObjPruned++
			st.SNObjPrunedDist++
			continue
		}
		cand = append(cand, u)
	}
	slices.Sort(cand)
	ar.candGraph(ds.Social, uq, cand)
	st.CandUsers = len(cand)
}

// leafUsers applies the object-level user pruning (Section 3.2) to the
// users of leaf n and appends the survivors to cand. It is one pass over
// the leaf's consecutive positions: the user topic table and the hop rows
// are both stored in leaf order. uqHops is u_q's hop row, nil when u_q's
// own row is unsound; a leaf holding no hop-invalidated user skips the
// per-user check.
func (e *Engine) leafUsers(n *index.SNode, uq socialnet.UserID, p Params, uqRow topicRow, uqHops []int32, st *Stats, cand []socialnet.UserID) []socialnet.UserID {
	ut := e.topics
	hopUnsafe := e.hopUnsafe(n)
	for i, u := range n.Users {
		if u == uq {
			continue // the issuer is handled separately
		}
		at := n.First + i
		// Both rules are evaluated on every leaf user — the user is pruned
		// when either fires, and each rule's power is counted
		// independently, which is how Fig. 7(b) reports them. Interest:
		// Lemma 3 / Corollary 1. Social distance: Lemma 4.
		interestPrune := ut.interestPrunable(p, uqRow, ut.at(at))
		distPrune := false
		if uqHops != nil && (!hopUnsafe || !e.touchedAt(at)) {
			lb, okHop := socialnet.HopLowerBound(e.Social.HopsAt(at), uqHops)
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
		cand = append(cand, u)
	}
	return cand
}

// indexInterestPrunable is the node-level form (Lemma 8).
func indexInterestPrunable(p Params, region *PruneRegion, anchor []float64, n *index.SNode) bool {
	if p.Metric == MetricDotProduct {
		return region.ContainsMBR(n.LbW, n.UbW)
	}
	return SimilarityUpperBound(p.Metric, anchor, n.LbW, n.UbW) < p.Gamma
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
// out against bound. Pivot bounds (Lemmas 5 and 7, the companion test) are
// sums of independently rounded floats, so a bound whose true value
// equals an exact tied cost can land an ulp above it; a bare lb > bound
// would then drop a tied candidate depending on which tie set the bound
// first, i.e. on worker timing. The relative slack of 1e-9 is far above
// that rounding and far below any real gap. Bounds are ≥ 0, and +Inf stays
// +Inf. The anchor stream's keys take the same slack the other way
// (boundKey). Comparisons between two exact costs (the keeper,
// enumerateGroups, the duq cut-off) stay strict and never go through here.
func prunes(lb, bound float64) bool { return lb > bound*(1+1e-9) }

// boundKey is the anchor stream's key for a derived lower bound lb (Eq. 17
// for a node, Lemma 5 for an anchor), shrunk by prunes' slack: a bound
// that rounded up past a tied exact distance must not sort after it.
func boundKey(lb float64) float64 { return lb * (1 - 1e-9) }

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
			"POIs: %d pruned of %d (index %d, object %d) -> %d anchors, %d repeating a ball, %d near a pending road edge, %d failed θ on their ball, %d short of companions | "+
			"M(u) evaluations %d | pairs evaluated %d",
		s.CPUTime, s.PageReads,
		snTotal, s.SNUsersTotal, s.SNIndexPruned, s.SNObjPruned, s.CandUsers,
		rnTotal, s.RNPOIsTotal, s.RNIndexPruned, s.RNObjPruned, s.CandAnchors,
		s.AnchorsSameBall, s.AnchorsNearPortal, s.AnchorsThetaFailed, s.AnchorsReachFailed, s.MEvaluations, s.PairsEvaluated)
}
