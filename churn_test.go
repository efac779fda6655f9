package gpssn

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpssn/internal/core"
	"gpssn/internal/failpoint"
	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// churnNetwork generates the road-churn test network. Each caller gets a
// fresh copy because Open attaches the oracle to the network's road graph.
func churnNetwork(t testing.TB) *Network {
	t.Helper()
	net, err := GenerateSynthetic(SyntheticOptions{
		Name: "churn", Seed: 11,
		RoadVertices: 140, Users: 60, POIs: 40, Topics: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// compareVsFreshTwin is the churn equality gate: every query answer of the
// live DB — whose hub labels road inserts updated in place, or whose CH a
// new edge detached — must match a DB freshly Opened over a clone of the
// mutated dataset, whose oracle was built from scratch on the final
// topology. Group, POI set, and anchor must agree exactly; the cost
// up to floating-point association order (sameCost), because shortcut
// weights are build-time sums. It also cross-checks found/cost against the
// brute-force Baseline.
func compareVsFreshTwin(t *testing.T, db *DB, label string) {
	t.Helper()
	db.mu.RLock()
	snap := cloneDataset(db.net.ds)
	cfg := db.cfg
	db.mu.RUnlock()
	twin, err := Open(&Network{ds: snap}, cfg)
	if err != nil {
		t.Fatalf("%s: fresh twin Open: %v", label, err)
	}
	oracle := &core.Baseline{DS: snap}
	queries := []Query{
		{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2},
		{GroupSize: 3, Gamma: 0.3, Theta: 0.4, Radius: 2.5},
	}
	for _, q := range queries {
		for user := 0; user < 60; user += 6 {
			liveAns, _, liveErr := db.Query(user, q)
			twinAns, _, twinErr := twin.Query(user, q)
			if (liveErr == nil) != (twinErr == nil) {
				t.Fatalf("%s user=%d q=%+v: err mismatch (live=%v twin=%v)",
					label, user, q, liveErr, twinErr)
			}
			p := core.Params{Gamma: q.Gamma, Tau: q.GroupSize, Theta: q.Theta, R: q.Radius}
			want, _ := oracle.Query(socialnet.UserID(user), p)
			if liveErr != nil {
				if !errors.Is(liveErr, ErrNoAnswer) {
					t.Fatalf("%s user=%d: unexpected error %v", label, user, liveErr)
				}
				if want.Found {
					t.Fatalf("%s user=%d: DB found nothing, Baseline found cost %v",
						label, user, want.MaxDist)
				}
				continue
			}
			if !sameAnswer(liveAns, twinAns) {
				t.Fatalf("%s user=%d q=%+v:\n live %s maxdist=%x\n twin (rebuilt) %s maxdist=%x",
					label, user, q, answerKey(liveAns), liveAns.MaxDistance,
					answerKey(twinAns), twinAns.MaxDistance)
			}
			if !want.Found {
				t.Fatalf("%s user=%d: DB answered, Baseline says infeasible", label, user)
			}
			if !sameCost(liveAns.MaxDistance, want.MaxDist) {
				t.Fatalf("%s user=%d: cost %v != Baseline %v",
					label, user, liveAns.MaxDistance, want.MaxDist)
			}
			// Top-k rank by rank on cost: which of several equal-cost
			// anchors fills a rank is ROADMAP item 1's open question.
			liveTop, _, err := db.QueryTopK(user, q, 3)
			if err != nil {
				t.Fatalf("%s user=%d: QueryTopK: %v", label, user, err)
			}
			twinTop, _, err := twin.QueryTopK(user, q, 3)
			if err != nil {
				t.Fatalf("%s user=%d: twin QueryTopK: %v", label, user, err)
			}
			wantTop, _ := oracle.QueryTopK(socialnet.UserID(user), p, 3)
			if len(liveTop) != len(twinTop) || len(liveTop) != len(wantTop) {
				t.Fatalf("%s user=%d q=%+v: top-k sizes live=%d twin=%d Baseline=%d",
					label, user, q, len(liveTop), len(twinTop), len(wantTop))
			}
			for i := range liveTop {
				if c := liveTop[i].MaxDistance; !sameCost(c, twinTop[i].MaxDistance) || !sameCost(c, wantTop[i].MaxDist) {
					t.Fatalf("%s user=%d q=%+v: top-k rank %d cost live=%v twin=%v Baseline=%v",
						label, user, q, i, c, twinTop[i].MaxDistance, wantTop[i].MaxDist)
				}
			}
		}
	}
}

// churnScript applies a deterministic mixed-mutation script: new road
// vertices stitched into the network, shortcut edges between existing
// vertices, POIs, and friendships. Returns after the road topology has
// genuinely changed (the overlay is active for oracle-backed DBs).
func churnScript(t *testing.T, db *DB, rounds int) {
	t.Helper()
	n0 := db.Network().Dataset().Road.NumVertices()
	for i := 0; i < rounds; i++ {
		// A new intersection near an existing one, wired in with two edges.
		base := db.Network().Dataset().Road.Vertex(roadnet.VertexID(socialVertex(i, n0)))
		v, err := db.AddRoadVertex(base.X+0.05+0.01*float64(i), base.Y+0.03)
		if err != nil {
			t.Fatalf("AddRoadVertex: %v", err)
		}
		if _, err := db.AddRoadEdge(socialVertex(i, n0), v); err != nil {
			t.Fatalf("AddRoadEdge (attach): %v", err)
		}
		if _, err := db.AddRoadEdge(v, socialVertex(i+3, n0)); err != nil {
			t.Fatalf("AddRoadEdge (stitch): %v", err)
		}
		// A shortcut between two existing vertices, skipping duplicates.
		a, b := socialVertex(i*5, n0), socialVertex(i*5+17, n0)
		if a != b && !db.Network().Dataset().Road.HasEdge(roadnet.VertexID(a), roadnet.VertexID(b)) {
			if _, err := db.AddRoadEdge(a, b); err != nil {
				t.Fatalf("AddRoadEdge (shortcut): %v", err)
			}
		}
		if _, err := db.AddPOI(base.X+0.1, base.Y+0.1, i%db.Network().NumTopics()); err != nil {
			t.Fatalf("AddPOI: %v", err)
		}
		if _, err := db.AddFriendship(i%20, 20+i%20); err != nil && !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("AddFriendship: %v", err)
		}
	}
}

func socialVertex(i, n int) int { return (i*13 + 7) % n }

// TestRoadChurnEqualityGates is the equality gate for road inserts: under a
// mixed churn script the live DB must keep agreeing with a freshly rebuilt
// twin and with the brute-force Baseline, for every oracle backend,
// before, during, and after a background Compact.
func TestRoadChurnEqualityGates(t *testing.T) {
	for _, kind := range []string{"hl", "ch", "dijkstra"} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/P%d", kind, par), func(t *testing.T) {
				testRoadChurnEqualityGates(t, kind, par)
			})
		}
	}
}

func testRoadChurnEqualityGates(t *testing.T, kind string, par int) {
	net := churnNetwork(t)
	cfg := DefaultConfig()
	cfg.RoadPivots = 3
	cfg.SocialPivots = 3
	cfg.DistanceOracle = kind
	cfg.Parallelism = par
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The POI label table's lifecycle rides the same script: built at Open
	// under hl, one row per AddPOI, kept across pendant road edges and
	// rebuilt by one that changes a label, rebuilt by Compact and by
	// OpenSnapshot; never held under ch/dijkstra.
	labels := kind == "hl"
	checkPOILabelTable(t, db, labels, kind+"/open")
	// Three POIs at the home of the user farthest from every existing POI:
	// their ball holds nothing else, and one of them must win as anchor.
	issuer, x, y := remotestUser(db.Network())
	firstNew := db.Network().NumPOIs()
	for i := 0; i < 3; i++ {
		if _, err := db.AddPOI(x+0.01*float64(i), y, 0, 1, 2, 3, 4, 5); err != nil {
			t.Fatalf("AddPOI: %v", err)
		}
	}
	checkPOILabelTable(t, db, labels, kind+"/poi-delta")
	near := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 0.5}
	if ans, _, err := db.Query(issuer, near); err != nil || ans.Anchor < firstNew {
		t.Fatalf("a POI appended at user %d's home should anchor their answer, got %+v (%v)", issuer, ans, err)
	}
	compareVsFreshTwin(t, db, kind+"/poi-delta")

	churnScript(t, db, 3)
	if kind != "dijkstra" {
		ov := db.RoadOverlayStats()
		if !ov.Active || ov.NewEdges == 0 {
			t.Fatalf("insert counters should be running after road churn: %+v", ov)
		}
	}
	if h := db.Health(); kind == "ch" && (h.OracleActive != "dijkstra" || !strings.Contains(strings.Join(h.Notes, "\n"), "detached the ch oracle")) {
		t.Fatalf("a road edge must detach the CH with a Health note: %+v", h)
	}
	checkPOILabelTable(t, db, labels, kind+"/pre-compact")
	compareVsFreshTwin(t, db, kind+"/pre-compact")

	// During: queries race the background re-contraction. Answers
	// must stay well-formed and the swap must not tear anything.
	done := make(chan error, 1)
	go func() { done <- db.Compact() }()
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
	for i := 0; i < 50; i++ {
		if _, _, err := db.Query(i%60, q); err != nil && !errors.Is(err, ErrNoAnswer) {
			t.Fatalf("query during Compact: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if ov := db.RoadOverlayStats(); ov.Active {
		t.Fatalf("Compact should zero the insert counters: %+v", ov)
	}
	if h := db.Health(); h.OracleActive != kind {
		t.Fatalf("Compact should restore the %s oracle, Health says %q", kind, h.OracleActive)
	}
	checkPOILabelTable(t, db, labels, kind+"/post-compact")
	compareVsFreshTwin(t, db, kind+"/post-compact")

	path := filepath.Join(t.TempDir(), "churn.gpssn")
	if err := db.Snapshot(path); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	re, err := OpenSnapshot(path, cfg)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	checkPOILabelTable(t, re, labels, kind+"/reopened")
	compareVsFreshTwin(t, re, kind+"/reopened")

	// Churn again on the compacted world: the rebuilt oracle must follow
	// the inserts and stay exact.
	churnScript(t, db, 2)
	checkPOILabelTable(t, db, labels, kind+"/post-compact-churn")
	compareVsFreshTwin(t, db, kind+"/post-compact-churn")
}

// remotestUser returns the user whose home is farthest (Euclidean) from
// every POI, with that home's coordinates.
func remotestUser(n *Network) (user int, x, y float64) {
	best := -1.0
	for u := 0; u < n.NumUsers(); u++ {
		ux, uy := n.UserLocation(u)
		nearest := math.Inf(1)
		for p := 0; p < n.NumPOIs(); p++ {
			px, py := n.POILocation(p)
			nearest = math.Min(nearest, math.Hypot(ux-px, uy-py))
		}
		if nearest > best {
			best, user, x, y = nearest, u, ux, uy
		}
	}
	return user, x, y
}

// checkPOILabelTable asserts whether db's engine holds the POI label table
// right now and, when it does, that it has one well-formed row per POI and
// that MemoryStats accounts for it.
func checkPOILabelTable(t *testing.T, db *DB, held bool, label string) {
	t.Helper()
	tab, bytes := db.Engine().POILabels(), db.MemoryStats().POILabelBytes
	if !held {
		if tab != nil || bytes != 0 {
			t.Fatalf("%s: POI label table held (%d bytes), want none", label, bytes)
		}
		return
	}
	if tab == nil || bytes <= 0 {
		t.Fatalf("%s: no POI label table (%d bytes)", label, bytes)
	}
	if n := db.Network().NumPOIs(); tab.NumRows() != n {
		t.Fatalf("%s: POI label table has %d rows for %d POIs", label, tab.NumRows(), n)
	}
	if err := tab.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestAddFriendshipInvalidInput pins the facade panic-guard regression:
// out-of-range ids and self-friendships used to panic inside the social
// graph; they must now return an error matching ErrInvalidInput.
func TestAddFriendshipInvalidInput(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{{0, 999}, {999, 0}, {-1, 0}, {0, -1}, {2, 2}} {
		added, err := db.AddFriendship(tc[0], tc[1])
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("AddFriendship(%d, %d): want ErrInvalidInput, got %v", tc[0], tc[1], err)
		}
		if added {
			t.Errorf("AddFriendship(%d, %d): invalid input reported as added", tc[0], tc[1])
		}
	}
}

// TestDuplicateFriendshipNoOp pins the no-op contract: re-adding an
// existing friendship returns (false, nil), leaves no pending-update
// residue, and — because it cannot change any answer — does not flush the
// answer cache.
func TestDuplicateFriendshipNoOp(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{
		RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2, CacheSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Users 0 and 1 are friends in the figure-1 network.
	q := Query{GroupSize: 2, Gamma: 0.1, Theta: 0.1, Radius: 1.5}
	if _, _, err := db.Query(0, q); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatal(err)
	}
	warm := db.cache.len()
	if warm == 0 {
		t.Fatal("cache not warmed")
	}
	added, err := db.AddFriendship(0, 1)
	if err != nil {
		t.Fatalf("duplicate AddFriendship: %v", err)
	}
	if added {
		t.Error("duplicate friendship reported as added")
	}
	if got := db.cache.len(); got != warm {
		t.Errorf("duplicate friendship flushed the cache: %d -> %d entries", warm, got)
	}
	if n := db.PendingUpdates(); n != 0 {
		t.Errorf("duplicate friendship left %d pending updates", n)
	}
	// A genuinely new friendship still invalidates.
	added, err = db.AddFriendship(0, 4)
	if err != nil {
		t.Fatalf("AddFriendship: %v", err)
	}
	if !added {
		t.Error("new friendship reported as no-op")
	}
	if db.cache.len() != 0 {
		t.Error("new friendship did not flush the cache")
	}
}

// TestRoadMutationValidation covers the typed-error surface of the new
// road mutations and their per-kind invalidation contract: an isolated
// vertex flushes nothing, an edge flushes everything.
func TestRoadMutationValidation(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{
		RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2, CacheSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddRoadVertex(math.NaN(), 0); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("NaN road vertex: want ErrInvalidInput, got %v", err)
	}
	if _, err := db.AddRoadVertex(math.Inf(1), 0); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("Inf road vertex: want ErrInvalidInput, got %v", err)
	}
	n := db.Network().Dataset().Road.NumVertices()
	if _, err := db.AddRoadEdge(0, n+5); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("out-of-range road edge: want ErrInvalidInput, got %v", err)
	}
	if _, err := db.AddRoadEdge(-1, 0); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative road edge endpoint: want ErrInvalidInput, got %v", err)
	}
	if _, err := db.AddRoadEdge(0, 0); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("self-loop road edge: want ErrInvalidInput, got %v", err)
	}

	q := Query{GroupSize: 2, Gamma: 0.1, Theta: 0.1, Radius: 1.5}
	warm := func() int {
		t.Helper()
		if _, _, err := db.Query(0, q); err != nil && !errors.Is(err, ErrNoAnswer) {
			t.Fatal(err)
		}
		n := db.cache.len()
		if n == 0 {
			t.Fatal("cache not warmed")
		}
		return n
	}

	// Isolated vertex: provably answer-preserving, cache survives.
	n0 := warm()
	v, err := db.AddRoadVertex(0.5, 0.5)
	if err != nil {
		t.Fatalf("AddRoadVertex: %v", err)
	}
	if got := db.cache.len(); got != n0 {
		t.Errorf("AddRoadVertex flushed the cache: %d -> %d entries", n0, got)
	}

	// Duplicate of an existing segment is rejected before any state change.
	if _, err := db.AddRoadEdge(0, v); err != nil {
		t.Fatalf("AddRoadEdge: %v", err)
	}
	if _, err := db.AddRoadEdge(v, 0); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("duplicate road edge: want ErrInvalidInput, got %v", err)
	}

	// Edge: can shorten any distance, cache must be flushed.
	warm()
	if _, err := db.AddRoadEdge(v, 1); err != nil {
		t.Fatalf("AddRoadEdge: %v", err)
	}
	if db.cache.len() != 0 {
		t.Error("AddRoadEdge did not flush the cache")
	}
}

// TestRoadOverlayStatsLifecycle walks the insert counters through their
// lifecycle: inactive on a fresh DB, active with accurate counters under
// churn, and zeroed (inactive again) by Compact.
func TestRoadOverlayStatsLifecycle(t *testing.T) {
	net := churnNetwork(t)
	cfg := DefaultConfig()
	cfg.RoadPivots = 3
	cfg.SocialPivots = 3
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ov := db.RoadOverlayStats(); ov.Active {
		t.Fatalf("fresh DB should count no insert: %+v", ov)
	}
	v, err := db.AddRoadVertex(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ov := db.RoadOverlayStats()
	if !ov.Active || ov.NewVerts != 1 || ov.NewEdges != 0 || ov.Portals != 1 {
		t.Fatalf("after AddRoadVertex: %+v (want NewVerts=1 Portals=1)", ov)
	}
	if _, err := db.AddRoadEdge(0, v); err != nil {
		t.Fatal(err)
	}
	ov = db.RoadOverlayStats()
	if ov.NewEdges != 1 || ov.Portals != 2 {
		t.Fatalf("after AddRoadEdge: %+v (want NewEdges=1, Portals=2)", ov)
	}
	// The issuer living nearest the new edge's old end.
	road := db.Network().Dataset().Road
	p0, issuer := road.Vertex(0), 0
	for u := 1; u < db.Network().NumUsers(); u++ {
		if x, y := db.Network().UserLocation(u); p0.Dist(geo.Pt(x, y)) < p0.Dist(geo.Pt(db.Network().UserLocation(issuer))) {
			issuer = u
		}
	}
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
	if _, _, err := db.Query(issuer, q); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if ov = db.RoadOverlayStats(); ov.Active {
		t.Fatalf("Compact should zero the insert counters: %+v", ov)
	}
}

// TestCompactBackgroundFailure pins the rebuild-failure fallback
// (docs/ROBUSTNESS.md): when the background re-contraction fails, Compact
// returns the error, the previous engine — updated labels included — keeps
// serving exact answers, Rebuilding is cleared, and the failure is
// recorded as a Health note.
func TestCompactBackgroundFailure(t *testing.T) {
	net := churnNetwork(t)
	cfg := DefaultConfig()
	cfg.RoadPivots = 3
	cfg.SocialPivots = 3
	cfg.DistanceOracle = "hl"
	cfg.StrictOracle = true
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, db, 2)
	pending := db.PendingUpdates()

	boom := errors.New("injected oracle build failure")
	failpoint.Arm("oracle.build.hl", failpoint.Failure{Mode: failpoint.ModeError, Err: boom})
	err = db.Compact()
	failpoint.Reset()
	if err == nil {
		t.Fatal("Compact should surface the injected build failure")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Compact error should wrap the cause, got %v", err)
	}
	h := db.Health()
	if h.Rebuilding {
		t.Error("Rebuilding flag stuck after failed Compact")
	}
	found := false
	for _, n := range h.Notes {
		if strings.Contains(n, "re-contraction failed") {
			found = true
		}
	}
	if !found {
		t.Errorf("failed Compact left no health note: %v", h.Notes)
	}
	if got := db.PendingUpdates(); got != pending {
		t.Errorf("failed Compact changed pending updates: %d -> %d", pending, got)
	}
	if ov := db.RoadOverlayStats(); !ov.Active {
		t.Error("failed Compact zeroed the insert counters")
	}
	// The previous engine must keep serving exactly.
	compareVsFreshTwin(t, db, "after-failed-compact")

	// And a later, healthy Compact still drains everything.
	if err := db.Compact(); err != nil {
		t.Fatalf("recovery Compact: %v", err)
	}
	if ov := db.RoadOverlayStats(); ov.Active {
		t.Error("recovery Compact did not zero the insert counters")
	}
}

// TestCompactRebuildingObserved checks that the Rebuilding health flag is
// visible to concurrent readers while the background re-contraction runs,
// and that queries keep succeeding the whole time.
func TestCompactRebuildingObserved(t *testing.T) {
	// Big enough that the background re-contraction takes >100ms even on
	// one core — the poll loop below needs a real window to observe.
	net, err := GenerateSynthetic(SyntheticOptions{
		Name: "rebuild", Seed: 13,
		RoadVertices: 8000, Users: 40, POIs: 30, Topics: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DistanceOracle = "hl"
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddRoadVertex(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- db.Compact() }()

	sawRebuilding := false
	finished := false
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
	deadline := time.Now().Add(30 * time.Second)
	for !sawRebuilding && !finished && time.Now().Before(deadline) {
		if db.Health().Rebuilding {
			sawRebuilding = true
			// Queries must be served mid-rebuild.
			if _, _, err := db.Query(0, q); err != nil && !errors.Is(err, ErrNoAnswer) {
				t.Fatalf("query mid-rebuild: %v", err)
			}
			break
		}
		select {
		case err := <-done:
			finished = true
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
		default:
			// On GOMAXPROCS=1 the rebuild goroutine only runs when this
			// loop yields.
			runtime.Gosched()
		}
	}
	if !finished {
		if err := <-done; err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
	if !sawRebuilding {
		// The rebuild finished between polls; the flag's lifecycle is
		// still pinned deterministically by TestCompactBackgroundFailure.
		t.Skip("rebuild too fast to observe; flag lifecycle covered elsewhere")
	}
	if db.Health().Rebuilding {
		t.Error("Rebuilding flag stuck after successful Compact")
	}
}

// TestDBConcurrentRoadChurn is the -race interleaving suite for road
// inserts: many goroutines query while one mutates the road network
// (vertices and edges), one adds POIs, and a background Compact swaps the
// engine mid-flight. Answers must stay well-formed throughout; afterwards
// every worker must have drained and the quiesced DB must agree with a
// freshly rebuilt twin and the Baseline on the final network.
func TestDBConcurrentRoadChurn(t *testing.T) {
	net := churnNetwork(t)
	cfg := DefaultConfig()
	cfg.RoadPivots = 3
	cfg.SocialPivots = 3
	cfg.CacheSize = 8
	cfg.Parallelism = 4
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
	users := []int{0, 5, 11, 23, 37, 52}
	n0 := db.Network().Dataset().Road.NumVertices()

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var failures atomic.Int64
	const queriers = 6
	const iters = 12
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				u := users[(g+it)%len(users)]
				ans, _, err := db.Query(u, q)
				if err != nil && !errors.Is(err, ErrNoAnswer) {
					t.Errorf("Query(%d): %v", u, err)
					failures.Add(1)
					return
				}
				if err == nil && (len(ans.Users) != q.GroupSize || ans.MaxDistance < 0) {
					t.Errorf("Query(%d): malformed answer %+v", u, ans)
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	// Road mutator: stitch new intersections in while queries fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			v, err := db.AddRoadVertex(0.3+0.1*float64(i), 0.7)
			if err != nil {
				t.Errorf("AddRoadVertex: %v", err)
				return
			}
			if _, err := db.AddRoadEdge(socialVertex(i, n0), v); err != nil {
				t.Errorf("AddRoadEdge: %v", err)
				return
			}
		}
	}()
	// POI mutator.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := db.AddPOI(float64(i)*0.3, 0.5, i%net.NumTopics()); err != nil {
				t.Errorf("AddPOI: %v", err)
				return
			}
		}
	}()
	// Background re-contraction racing both mutators and all queriers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := db.Compact(); err != nil {
			t.Errorf("Compact: %v", err)
		}
	}()
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}

	// Every refinement worker and the rebuild goroutine must have drained.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("goroutine leak: %d running, baseline %d", n, baseline)
	}
	if db.Health().Rebuilding {
		t.Error("Rebuilding flag stuck after concurrent churn")
	}

	// Quiesced: bit-identical replay against a rebuilt twin and Baseline.
	compareVsFreshTwin(t, db, "concurrent-churn-quiesced")
}
