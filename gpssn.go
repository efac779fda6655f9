// Package gpssn implements Group Planning queries over Spatial-Social
// Networks (GP-SSN), reproducing "Efficient Processing of Group Planning
// Queries Over Spatial-Social Networks" (Al-Baghdadi, Sharma, Lian).
//
// A spatial-social network combines a road network G_r (intersections,
// road segments, POIs on segments) with a social network G_s (users with
// interest vectors, friendships, and homes on the road network). A GP-SSN
// query issued by a user retrieves a group S of τ pairwise-compatible,
// socially connected friends including the issuer, and a set R of spatially
// close POIs matching every group member's interests, minimizing the
// maximum road-network distance between group members and POIs.
//
// Typical use:
//
//	b := gpssn.NewBuilder(4)                    // 4 interest topics
//	a := b.AddIntersection(0, 0)
//	c := b.AddIntersection(1, 0)
//	b.AddRoad(a, c)
//	b.AddPOI(0.5, 0, 0, 2)                      // POI with keywords {0,2}
//	u1 := b.AddUser(0.2, 0, []float64{0.9, 0, 0.5, 0})
//	u2 := b.AddUser(0.7, 0, []float64{0.8, 0, 0.4, 0})
//	b.AddFriendship(u1, u2)
//	net, _ := b.Build()
//
//	db, _ := gpssn.Open(net, gpssn.DefaultConfig())
//	ans, stats, _ := db.Query(u1, gpssn.Query{
//		GroupSize: 2, Gamma: 0.3, Theta: 0.5, Radius: 1,
//	})
//
// # Entry points
//
// Build a Network by hand with NewBuilder, generate one with
// GenerateSynthetic or GenerateRealLike (the paper's evaluation
// datasets), import external data with ImportCSV, or reload one with
// Load. Open indexes a Network into a DB; OpenSnapshot restores a DB
// from a file written by DB.Snapshot, skipping index construction.
//
// A DB answers queries with Query and QueryTopK; the Ctx variants add
// cooperative cancellation and deadlines, and Query.Budget caps the
// work a single query may spend (exceeding it returns the best answer
// found, flagged Answer.Truncated — possibly suboptimal, never wrong).
// A DB is safe for concurrent use: queries run in parallel and dynamic
// updates (AddPOI, AddUser, AddFriendship, AddRoadVertex, AddRoadEdge,
// Compact) serialize against them (docs/CONCURRENCY.md). Road mutations
// keep the hub labels exact in place, and Compact rebuilds them in the
// background without blocking queries.
// DB.Health reports the active distance oracle and any degradation.
//
// # Error contract
//
// Every error returned by the public API matches exactly one of the
// sentinels ErrInvalidInput, ErrNoAnswer, ErrCancelled,
// ErrDeadlineExceeded, ErrSnapshotCorrupt, ErrWALCorrupt,
// ErrSharedNetwork, or ErrInternal via errors.Is, so callers branch on
// failure class without string matching; inspect structured detail
// (SnapshotError, InternalError) with errors.As. The full taxonomy, and
// the guarantee that a DB never panics the caller's process and never
// serves a wrong answer, is docs/ROBUSTNESS.md. The HTTP serving layer (cmd/gpssn-serve,
// docs/SERVING.md) maps this contract one-to-one onto status codes.
package gpssn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gpssn/internal/build"
	"gpssn/internal/core"
	"gpssn/internal/socialnet"
	"gpssn/internal/wal"
)

// Metric selects the user-to-user interest similarity.
type Metric int

const (
	// DotProduct is the paper's interest score (Eq. 1), the default.
	DotProduct Metric = iota
	// Jaccard is the weighted Jaccard similarity extension.
	Jaccard
	// Hamming is the support-agreement similarity extension.
	Hamming
)

func (m Metric) internal() core.InterestMetric {
	switch m {
	case Jaccard:
		return core.MetricJaccard
	case Hamming:
		return core.MetricHamming
	default:
		return core.MetricDotProduct
	}
}

// Config controls index construction.
type Config struct {
	// RoadPivots (h) and SocialPivots (l) are the pivot counts; defaults 5.
	RoadPivots, SocialPivots int
	// RMin and RMax bound the query radius served by the index; defaults
	// 0.5 and 4 (the paper's Table 3 range).
	RMin, RMax float64
	// LeafSize and Fanout shape the social index I_S; defaults 64 and 8.
	LeafSize, Fanout int
	// MaxEntries is the node capacity of I_R's R-tree; default 16.
	MaxEntries int
	// Deprecated: no effect; kept because benchmark/probes.go reads it
	PageSize, PoolPages int
	// Seed drives pivot selection.
	Seed int64
	// CacheSize enables an LRU cache of query answers (entries; 0 = off).
	// The cache is invalidated by any dynamic update and by Compact.
	CacheSize int
	// Parallelism is the number of worker goroutines each query's
	// refinement stage fans anchor candidates over; at 2 or more the
	// query's social half (the I_S pass and the candidate graph) also
	// runs on its own goroutine beside the probe and the start of the
	// anchor stream. 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs
	// the whole query sequentially. Any setting returns identical answers
	// — see docs/CONCURRENCY.md; above 1 the PageReads, CandidateAnchors
	// and AnchorsSameBall counters may vary from run to run.
	Parallelism int
	// DistanceOracle selects the exact road-distance backend. "hl" (the
	// default) builds a contraction hierarchy at Open time, extracts hub
	// labels from it and keeps only the labels, turning point-to-point
	// dist_RN evaluations into sub-µs sorted-array merges and switching
	// refinement to the batched label kernel; "ch" stops at the
	// contraction hierarchy (about 4x cheaper preprocessing, slower
	// queries — the benchmark's roadnet.{hl,ch}.* and core.query_ms /
	// core.query_ch_ms metrics measure both); "dijkstra" keeps the plain
	// bounded searches. Each oracle answers pairs only: the one-to-all
	// searches of the pivot-table build run plain Dijkstra under all
	// three, and a snapshot holds only the chosen oracle's section. All
	// three are exact and return identical answers; see docs/ALGORITHMS.md
	// and the ablation-oracle experiment.
	//
	// All three backends return identical answers, so a failure to build
	// the requested one is not fatal: Open falls back down the chain
	// hl → ch → dijkstra (plain Dijkstra always works — it needs no
	// preprocessing) and records the degradation in Health(). Set
	// StrictOracle to turn a fallback into an Open error instead.
	DistanceOracle string
	// StrictOracle makes Open/OpenSnapshot fail when the requested
	// DistanceOracle cannot be built, instead of serving degraded through
	// the fallback chain.
	StrictOracle bool
	// Deprecated: no effect; kept because benchmark/gate.go uses it
	DisableSharedWork bool
	// WALPath enables the write-ahead log: every successful dynamic update
	// is appended (and fsynced per WALSync) to this file before it is
	// applied, and Open/OpenSnapshot replay the surviving log so committed
	// updates survive a crash between checkpoints. Empty (the default)
	// means updates are in-memory only until the next Snapshot, as before.
	// See docs/ROBUSTNESS.md §7 for the durability contract.
	WALPath string
	// WALSync selects when appends reach stable storage: "always" (the
	// default — an acknowledged update survives an immediate crash),
	// "batch" (group-commit: appends return after the OS write, a
	// background flusher fsyncs once per WALFlushWindow, bounding loss to
	// one window), or "none" (the OS decides; a crash may lose everything
	// since the last checkpoint). The benchmark's
	// wal.append_{always,batch,none}_us measure the cost of each.
	WALSync string
	// WALFlushWindow is the "batch" group-commit interval; default 2ms.
	WALFlushWindow time.Duration
	// WALAutoCheckpointBytes, when > 0, auto-checkpoints (Snapshot to
	// CheckpointPath, then truncate the log) in the background once the
	// log file outgrows this many bytes. 0 leaves checkpointing to
	// explicit Snapshot calls.
	WALAutoCheckpointBytes int64
	// CheckpointPath is where auto-checkpoints and the serve drain
	// checkpoint write their snapshot. Defaults to WALPath+".ckpt" when a
	// WAL is configured. Reopen with OpenSnapshot(CheckpointPath, cfg) —
	// the WAL pairs with its checkpoint, and Open refuses a log whose
	// records start past the base state's applied LSN.
	CheckpointPath string
	// OverlayCompactPortals, when > 0, auto-runs the background Compact
	// once RoadOverlayStats().Portals — new road vertices plus the older
	// vertices new road edges touch — exceeds it, which re-minimises the
	// hub labels road inserts grew and folds the delta objects into the
	// indexes. 0 leaves compaction to explicit calls.
	OverlayCompactPortals int
	// Logf, when set, receives diagnostic log lines (oracle fallbacks,
	// snapshot-recovery notes). nil discards them; the same information is
	// always available from Health().
	Logf func(format string, args ...any)
}

// logf forwards to the configured sink, if any.
func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// DefaultConfig returns the paper's default index configuration.
func DefaultConfig() Config {
	return Config{
		RoadPivots: 5, SocialPivots: 5,
		RMin: 0.5, RMax: 4,
		LeafSize: 64, Fanout: 8, MaxEntries: 16,
		DistanceOracle: "hl",
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RoadPivots == 0 {
		c.RoadPivots = d.RoadPivots
	}
	if c.SocialPivots == 0 {
		c.SocialPivots = d.SocialPivots
	}
	if c.RMin == 0 {
		c.RMin = d.RMin
	}
	if c.RMax == 0 {
		c.RMax = d.RMax
	}
	if c.LeafSize == 0 {
		c.LeafSize = d.LeafSize
	}
	if c.Fanout == 0 {
		c.Fanout = d.Fanout
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = d.MaxEntries
	}
	if c.DistanceOracle == "" {
		c.DistanceOracle = d.DistanceOracle
	}
	if c.CheckpointPath == "" && c.WALPath != "" {
		c.CheckpointPath = c.WALPath + ".ckpt"
	}
	return c
}

// Query is one GP-SSN request (Definition 5).
type Query struct {
	// GroupSize is τ, the size of the returned user group including the
	// issuer. Required, >= 1.
	GroupSize int
	// Gamma is the pairwise interest threshold γ in [0, ∞).
	Gamma float64
	// Theta is the user-POI matching threshold θ.
	Theta float64
	// Radius is r: the returned POI set is the road ball of radius r
	// around an anchor POI, so POIs are pairwise within 2r.
	Radius float64
	// Metric selects the similarity; zero value is the paper's DotProduct.
	Metric Metric
	// Budget caps the work this query may spend; the zero value is
	// unlimited. A budget-truncated query degrades gracefully: it returns
	// the best answer it fully evaluated, flagged Answer.Truncated, and is
	// never silently wrong. Budget participates in the answer-cache key, and
	// truncated results are never cached.
	Budget Budget
}

// Budget caps the work one query may spend. See core.Budget for the
// soundness argument: an interrupted road search yields no partial
// distances, so every figure a truncated answer reports is exact.
type Budget struct {
	// MaxSettledVertices caps road-search work units (settled vertices for
	// Dijkstra/CH scans, merged label entries for the hub-label kernel)
	// across all searches of one query. 0 = unlimited.
	MaxSettledVertices int64
	// MaxRefinedAnchors caps how many anchor candidates refinement fully
	// evaluates. 0 = unlimited.
	MaxRefinedAnchors int
}

func (b Budget) internal() core.Budget {
	return core.Budget{MaxSettledVertices: b.MaxSettledVertices, MaxRefinedAnchors: b.MaxRefinedAnchors}
}

// Answer is a GP-SSN result.
type Answer struct {
	// Users is the group S, sorted, always containing the issuer.
	Users []int
	// POIs is the set R, sorted.
	POIs []int
	// Anchor is the POI whose radius-r ball forms R.
	Anchor int
	// MaxDistance is the minimized max road distance between S and R.
	MaxDistance float64
	// Truncated is set when a Query.Budget cut the search short: the answer
	// is the best fully-evaluated candidate, not necessarily the optimum.
	// Truncated answers are never cached.
	Truncated bool
}

// Stats reports per-query cost, matching the paper's two metrics plus the
// pruning counters behind its effectiveness figures.
type Stats struct {
	// CPUTime is the wall time of the query.
	CPUTime time.Duration
	// PageReads is the paper's I/O metric: the number of I_R and I_S
	// nodes the query read. A node fills one page and each query starts
	// cold, so every node read is one page read.
	PageReads int64
	// CandidateUsers survive the I_S traversal and the hop filter;
	// CandidateAnchors entered the anchor stream refinement drains.
	CandidateUsers, CandidateAnchors int
	// AnchorsSameBall counts the anchors whose road ball repeated one
	// refinement had already taken in this query: each reused that ball's
	// outcome instead of refining it again.
	AnchorsSameBall int
	// CacheHit is set when the answer came from the answer cache; the cost
	// counters (CPUTime, PageReads) are zeroed on hits so harnesses never
	// mistake a cache lookup for query work.
	CacheHit bool
	// Raw exposes every pruning counter for experiment harnesses.
	Raw core.Stats
}

// DB is a queryable spatial-social network: a dataset plus its two GP-SSN
// indexes. Build one with Open.
//
// A DB is safe for concurrent use: any number of goroutines may call
// Query and QueryTopK simultaneously — each query runs with fully
// isolated per-query state (stats, page-read counters, trace).
// Dynamic updates (AddPOI, AddUser, AddFriendship, AddRoadVertex,
// AddRoadEdge) take an exclusive lock, so they serialize against
// in-flight queries and each other; queries observe either the state
// before an update or after it, never a torn intermediate. Compact
// rebuilds in the background and takes the exclusive lock only to swap.
// The full contract, including lock ordering, is docs/CONCURRENCY.md.
type DB struct {
	// mu orders queries (read side) against dynamic updates and Compact's
	// two short critical sections (write side). Holding it across
	// compute+cache-fill also keeps stale answers out of the cache: an
	// update cannot interleave between a query's engine call and its
	// cache put.
	mu sync.RWMutex
	// upd is the update-class lock, always acquired BEFORE mu (lock order
	// upd → mu, docs/CONCURRENCY.md). Every dynamic update and Compact
	// take it; queries never do. Compact holds it across its whole
	// background rebuild so no mutation can invalidate the cloned
	// topology, while queries keep flowing through mu's read side.
	upd    sync.Mutex
	net    *Network
	engine *core.Engine
	cfg    Config
	cache  *answerCache
	health Health

	// wal is the attached write-ahead log (nil without Config.WALPath);
	// appliedLSN is the newest record applied to the in-memory state, the
	// LSN a checkpoint persists. Both are guarded by mu.
	wal        *wal.Log
	appliedLSN uint64

	// maintTok serializes background auto-maintenance (maybeMaintain) and
	// lets Close wait it out; maintaining mirrors it for observation;
	// closed latches Close's idempotence.
	maintTok    chan struct{}
	maintaining atomic.Bool
	closed      atomic.Bool

	released  bool   // Close released the DB's count on net; set under upd and mu
	closedGen uint64 // net.gen at that release

	// BuildTime is how long index construction took. It is written by Open
	// and Compact; read it only when no Compact can be running.
	BuildTime time.Duration
}

// Health reports whether the DB is serving in a degraded mode. Degraded
// never means wrong: every distance backend is exact, so a fallback
// changes cost, not answers. Snapshot-recovery notes (sections rebuilt
// after detected damage) land here too.
type Health struct {
	// OracleRequested is the Config.DistanceOracle the DB was opened with.
	OracleRequested string
	// OracleActive is the backend actually serving ("hl", "ch" or
	// "dijkstra").
	OracleActive string
	// Degraded is set when OracleActive is a fallback below
	// OracleRequested in the chain hl → ch → dijkstra.
	Degraded bool
	// Rebuilding is set while a background Compact re-contraction is in
	// flight. Queries keep serving exactly; further updates block until
	// it clears.
	Rebuilding bool
	// Notes records, in order, every fallback and recovery event since the
	// DB was opened (oracle build failures, snapshot sections rebuilt).
	Notes []string
}

// Health returns the DB's current degraded-mode status. Safe for
// concurrent use.
func (db *DB) Health() Health {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h := db.health
	h.Notes = append([]string(nil), db.health.Notes...)
	return h
}

// Deprecated: no effect; kept because benchmark/probes.go uses it
type SharedWorkStats struct {
	BallHits, BallMisses, BallEvictions int64
	SweepHits, SweepMisses              int64
}

// Deprecated: no effect; kept because benchmark/probes.go uses it
func (db *DB) SharedWorkStats() SharedWorkStats { return SharedWorkStats{} }

// MemoryStats reports where a DB's memory lives: the preprocessed oracle
// structures (the dominant resident cost at scale — the capacity table in
// the README is derived from OracleBytes), the refinement arenas, the POI
// label table, and the Go heap as the runtime sees it. Safe to call
// concurrently with queries; gpssn-serve surfaces it under /statsz.
type MemoryStats struct {
	// OracleBytes, ArenaBytes and POILabelBytes are the engine's own
	// accounting — see core.MemoryStats for exactly what each covers.
	OracleBytes   int64
	ArenaBytes    int64
	POILabelBytes int64
	// Deprecated: no effect; kept because benchmark/run.go uses it
	MemoBytes int64
	// HeapAlloc and HeapSys are runtime.MemStats.HeapAlloc/HeapSys:
	// live heap bytes and heap address space obtained from the OS.
	HeapAlloc uint64
	HeapSys   uint64
	// NumGC is the completed garbage-collection cycle count.
	NumGC uint32
}

// MemoryStats snapshots the DB's memory accounting.
func (db *DB) MemoryStats() MemoryStats {
	var es core.MemoryStats
	if db.rlock() == nil { // a closed DB beside an open one reports the heap only
		es = db.engine.MemoryStats()
		db.runlock()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return MemoryStats{
		OracleBytes:   es.OracleBytes,
		ArenaBytes:    es.ArenaBytes,
		POILabelBytes: es.POILabelBytes,
		HeapAlloc:     m.HeapAlloc,
		HeapSys:       m.HeapSys,
		NumGC:         m.NumGC,
	}
}

// attachOracle attaches the first oracle on the configured backend's
// fallback chain that builds (an error instead, with StrictOracle), or
// keeps the one the road graph serves; a swap bumps the network's
// generation. Beside open DBs it shares their backend if it is on the
// chain. It reports through Health and logs each fallback. Called with
// net.mu held.
func attachOracle(net *Network, c Config) (Health, error) {
	chain, err := build.Chain(c.DistanceOracle)
	if err != nil {
		return Health{}, fmt.Errorf("gpssn: %w", err)
	}
	if net.dbs > 0 {
		active := build.Serving(net.ds.Road)
		if !slices.Contains(chain, active) {
			return Health{}, fmt.Errorf("%w: its open DBs share the %s oracle, not one %q falls back to", ErrSharedNetwork, active, c.DistanceOracle)
		}
		return Health{OracleRequested: c.DistanceOracle, OracleActive: active, Degraded: active != c.DistanceOracle}, nil
	}
	before := net.ds.Road.Oracle()
	active, notes, err := build.AttachOracle(net.ds.Road, c.DistanceOracle, c.StrictOracle)
	for _, n := range notes {
		c.logf("gpssn: %s", n)
	}
	if err != nil {
		return Health{}, fmt.Errorf("gpssn: %w", err)
	}
	if net.ds.Road.Oracle() != before {
		net.gen++
	}
	return Health{OracleRequested: c.DistanceOracle, OracleActive: active, Degraded: len(notes) > 0, Notes: notes}, nil
}

// Open builds the I_R and I_S indexes over the network and returns a
// queryable DB, open over the network until Close or Compact. DBs open
// over one network share it and its oracle (see Network).
func Open(net *Network, cfg Config) (*DB, error) {
	if net == nil || net.ds == nil {
		return nil, fmt.Errorf("gpssn: nil network")
	}
	c := cfg.withDefaults()
	start := time.Now()

	// Attach the distance oracle before anything touches road distances so
	// pivot selection and pivot-table construction run through it too. A
	// backend that fails to build degrades down the chain (see Health)
	// rather than failing the open, unless StrictOracle is set. Counting
	// the DB under the same lock lets an update in flight finish first.
	net.mu.Lock()
	health, err := attachOracle(net, c)
	if err == nil {
		net.dbs++
	}
	net.mu.Unlock()
	if err != nil {
		return nil, err
	}
	db, err := buildDB(net, c)
	if err != nil {
		net.release()
		return nil, err
	}
	db.health = health
	// Attach the write-ahead log last: replay re-enters the regular
	// update path, which needs the fully built engine. An existing log
	// brings the network's state forward to the last surviving record.
	if c.WALPath != "" {
		if err := db.openWAL(c, 0); err != nil {
			net.release()
			return nil, err
		}
	}
	db.BuildTime = time.Since(start)
	return db, nil
}

// buildDB builds the indexes and engine over a network whose distance
// oracle is already attached (by attachOracle or snapshot restore). The
// caller fills in health and BuildTime.
func buildDB(net *Network, c Config) (*DB, error) {
	engine, err := build.Engine(net.ds, build.Options{
		RoadPivots: c.RoadPivots, SocialPivots: c.SocialPivots,
		RMin: c.RMin, RMax: c.RMax,
		LeafSize: c.LeafSize, Fanout: c.Fanout, MaxEntries: c.MaxEntries,
		Seed: c.Seed, Parallelism: c.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("gpssn: %w", err)
	}
	return &DB{
		net: net, engine: engine, cfg: c,
		cache:    newAnswerCache(c.CacheSize),
		maintTok: make(chan struct{}, 1),
	}, nil
}

// Network returns the underlying network. Its accessors are safe to call
// concurrently with queries; coordinate externally before mixing them with
// dynamic updates (updates grow the user and POI sets the accessors read).
// Compact swaps in a rebuilt private copy, so re-fetch rather than holding
// the pointer across one — the old network stays readable, unchanged, but
// stops seeing later updates.
func (db *DB) Network() *Network {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.net
}

// rlock takes db.mu's read side, and for a closed DB the network's too: a
// closed DB reads only while no DB is open over the network and its
// generation is still the one Close saw. runlock releases both.
func (db *DB) rlock() error {
	db.mu.RLock()
	if db.released {
		db.net.mu.RLock()
		if db.net.dbs > 0 || db.net.gen != db.closedGen {
			db.runlock()
			return fmt.Errorf("%w: this DB is closed, and another is open over its network or changed it", ErrSharedNetwork)
		}
	}
	return nil
}

func (db *DB) runlock() {
	if db.released {
		db.net.mu.RUnlock()
	}
	db.mu.RUnlock()
}

// validate rejects malformed query input with an ErrInvalidInput-matching
// error before any engine state is touched. NaN thresholds are rejected
// here explicitly: NaN slips through ordinary `< 0` comparisons and would
// otherwise poison every pruning bound downstream. Bounds that depend on
// the built index (r within [RMin, RMax]) remain the engine's job.
func (q Query) validate(user, numUsers int) error {
	if user < 0 || user >= numUsers {
		return invalidf("user %d out of range [0,%d)", user, numUsers)
	}
	if q.GroupSize < 1 {
		return invalidf("group size τ=%d must be >= 1", q.GroupSize)
	}
	if math.IsNaN(q.Radius) || q.Radius <= 0 {
		return invalidf("radius r=%v must be positive", q.Radius)
	}
	if math.IsNaN(q.Gamma) || q.Gamma < 0 {
		return invalidf("gamma %v must be a non-negative number", q.Gamma)
	}
	if math.IsNaN(q.Theta) || q.Theta < 0 {
		return invalidf("theta %v must be a non-negative number", q.Theta)
	}
	if q.Budget.MaxSettledVertices < 0 || q.Budget.MaxRefinedAnchors < 0 {
		return invalidf("budget caps must be non-negative")
	}
	return nil
}

// params maps a facade query onto the engine's parameter struct.
func (q Query) params() core.Params {
	return core.Params{
		Gamma: q.Gamma, Tau: q.GroupSize, Theta: q.Theta, R: q.Radius,
		Metric: q.Metric.internal(),
		Budget: q.Budget.internal(),
	}
}

// statsFrom lifts the engine's raw counters into the public Stats.
func statsFrom(raw core.Stats) *Stats {
	return &Stats{
		CPUTime:          raw.CPUTime,
		PageReads:        raw.PageReads,
		CandidateUsers:   raw.CandUsers,
		CandidateAnchors: raw.CandAnchors,
		AnchorsSameBall:  raw.AnchorsSameBall,
		Raw:              raw,
	}
}

// markCacheHit turns a cached Stats snapshot into a hit report: the flag is
// set (top-level and Raw) and the cost counters are zeroed so a cache
// lookup never masquerades as query work.
func markCacheHit(st *Stats) {
	st.CacheHit = true
	st.CPUTime = 0
	st.PageReads = 0
	st.Raw.CacheHit = true
	st.Raw.CPUTime = 0
	st.Raw.PageReads = 0
}

// answerFrom converts one engine result.
func answerFrom(res core.Result, truncated bool) Answer {
	ans := Answer{Anchor: int(res.Anchor), MaxDistance: res.MaxDist, Truncated: truncated}
	for _, u := range res.S {
		ans.Users = append(ans.Users, int(u))
	}
	for _, o := range res.R {
		ans.POIs = append(ans.POIs, int(o))
	}
	return ans
}

// Query answers a GP-SSN query for the given issuer. It returns
// ErrNoAnswer (wrapped) when no feasible group/POI pair exists. Safe for
// concurrent use: any number of goroutines may call Query on one DB.
func (db *DB) Query(user int, q Query) (*Answer, *Stats, error) {
	return db.QueryCtx(context.Background(), user, q)
}

// QueryCtx is Query with cooperative cancellation: it aborts promptly when
// ctx is cancelled or its deadline passes, returning an error matching
// ErrCancelled/ErrDeadlineExceeded (and the context sentinels) via
// errors.Is, with the partial Stats gathered so far. Cancelled and
// budget-truncated outcomes are never written to the answer cache, so a
// cancelled query cannot poison later ones.
func (db *DB) QueryCtx(ctx context.Context, user int, q Query) (*Answer, *Stats, error) {
	answers, st, err := db.query(ctx, "Query", user, q, 1)
	if err != nil {
		return nil, st, err
	}
	if len(answers) == 0 {
		return nil, st, fmt.Errorf("user %d: %w", user, ErrNoAnswer)
	}
	return &answers[0], st, nil
}

// QueryTopK returns up to k answers with distinct anchor POIs, cheapest
// first. It returns an empty slice (and no error) when nothing is feasible.
// Safe for concurrent use, like Query. Results go through the same answer
// cache as Query, keyed by (user, query, k); the empty outcome is cached
// too.
func (db *DB) QueryTopK(user int, q Query, k int) ([]Answer, *Stats, error) {
	return db.QueryTopKCtx(context.Background(), user, q, k)
}

// QueryTopKCtx is QueryTopK with cooperative cancellation, under the same
// contract as QueryCtx.
func (db *DB) QueryTopKCtx(ctx context.Context, user int, q Query, k int) ([]Answer, *Stats, error) {
	return db.query(ctx, "QueryTopK", user, q, k)
}

// query is the one query path: Query is its k = 1 case (the engine's
// top-1 is exactly its Query), so both share the cache key {user, q, 1}.
// op names the entry point in an *InternalError.
func (db *DB) query(ctx context.Context, op string, user int, q Query, k int) (answers []Answer, st *Stats, err error) {
	// The recovery boundary: an internal invariant panic anywhere below —
	// including one captured from a refinement worker goroutine — becomes
	// a typed *InternalError instead of crashing the caller's process.
	defer db.guard(op, user, q, &err)
	// Check before taking the read lock: Compact can hold the write lock
	// for seconds, and an already-dead context must fail in microseconds.
	if err := core.ContextError(ctx); err != nil {
		return nil, &Stats{}, err
	}
	if err := db.rlock(); err != nil {
		return nil, &Stats{}, err
	}
	defer db.runlock()
	if err := q.validate(user, len(db.net.ds.Users)); err != nil {
		return nil, nil, err
	}
	key := cacheKey{user: user, q: q, k: k}
	if answers, stats, found, ok := db.cache.get(key); ok {
		markCacheHit(&stats)
		if !found {
			return []Answer{}, &stats, nil
		}
		return answers, &stats, nil
	}
	results, raw, err := db.engine.QueryTopKCtx(ctx, socialnet.UserID(user), q.params(), k)
	st = statsFrom(raw)
	if err != nil {
		return nil, st, engineErr(err)
	}
	answers = make([]Answer, 0, len(results))
	for _, res := range results {
		answers = append(answers, answerFrom(res, raw.Truncated))
	}
	if !raw.Truncated {
		db.cache.put(key, answers, *st, len(answers) > 0)
	}
	return answers, st, nil
}

// Engine exposes the internal engine for the benchmark harness. External
// users should stick to Query. The engine itself is concurrent-safe, but
// the pointer is replaced by Compact — do not hold it across a Compact.
func (db *DB) Engine() *core.Engine {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine
}

// ErrNoAnswer is returned (wrapped) when a query has no feasible result.
var ErrNoAnswer = fmt.Errorf("gpssn: no feasible answer")

// ErrCancelled is wrapped into the error QueryCtx/QueryTopKCtx return when
// the caller's context is cancelled mid-query; errors.Is also matches
// context.Canceled on the same error.
var ErrCancelled = core.ErrCancelled

// ErrDeadlineExceeded is the ErrCancelled analogue for an expired deadline;
// errors.Is also matches context.DeadlineExceeded.
var ErrDeadlineExceeded = core.ErrDeadlineExceeded
