package gpssn

import (
	"errors"
	"fmt"
	"testing"
)

// openWithOracle generates a fresh copy of the deterministic test network
// and opens it with the given oracle and parallelism. Each DB gets its own
// Network because Open attaches the distance oracle to the network's road
// graph — sharing one network across differently-configured DBs would let
// the last Open win.
func openWithOracle(t *testing.T, seed int64, zipf bool, oracle string, parallelism int) *DB {
	t.Helper()
	net, err := GenerateSynthetic(SyntheticOptions{
		Seed: seed, RoadVertices: 150, Users: 70, POIs: 45, Topics: 6, Zipf: zipf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.RoadPivots = 4
	cfg.DistanceOracle = oracle
	cfg.Parallelism = parallelism
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func answerKey(a *Answer) string {
	return fmt.Sprintf("S=%v R=%v anchor=%d", a.Users, a.POIs, a.Anchor)
}

// sameCost reports whether two costs agree up to floating-point
// association order: CH shortcut weights are precomputed edge-weight sums,
// so the same shortest path can accumulate in a different order than
// Dijkstra's edge-at-a-time sum (observed divergence is 1 ULP).
func sameCost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	lim := 1e-9
	if a > 1 {
		lim *= a
	}
	return d <= lim
}

// sameAnswer compares two answers. With equal anchors, the group and POI
// set must match exactly and the cost up to sameCost. With different
// anchors, the answers are accepted only as an exact cost tie: the engine
// breaks mathematical ties by anchor id (resultLess in internal/core), and
// a 1-ULP jitter between the oracles can flip which equal-cost anchor the
// tie-break selects. Requiring sameCost on both sides pins that the flip
// really was a tie, not a wrong distance.
func sameAnswer(a, b *Answer) bool {
	if a.Anchor != b.Anchor {
		return sameCost(a.MaxDistance, b.MaxDistance)
	}
	return answerKey(a) == answerKey(b) && sameCost(a.MaxDistance, b.MaxDistance)
}

// TestOracleEqualityQueries is the tentpole equality gate: Query and
// QueryTopK must return identical answers with DistanceOracle=ch and
// =dijkstra, at refinement parallelism 1 and 8, on every small dataset.
// The group, POI set, and anchor must agree exactly; MaxDistance up to
// floating-point association order (see sameAnswer).
func TestOracleEqualityQueries(t *testing.T) {
	queries := []Query{
		{GroupSize: 3, Gamma: 0.3, Theta: 0.4, Radius: 2},
		{GroupSize: 2, Gamma: 0.5, Theta: 0.5, Radius: 1},
		{GroupSize: 4, Gamma: 0.2, Theta: 0.3, Radius: 3},
	}
	for _, zipf := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			ref := openWithOracle(t, seed, zipf, "dijkstra", 1)
			for _, par := range []int{1, 8} {
				db := openWithOracle(t, seed, zipf, "ch", par)
				for _, q := range queries {
					for user := 0; user < 70; user += 7 {
						wantAns, _, wantErr := ref.Query(user, q)
						gotAns, _, gotErr := db.Query(user, q)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("zipf=%v seed=%d par=%d user=%d q=%+v: err mismatch (dijkstra=%v ch=%v)",
								zipf, seed, par, user, q, wantErr, gotErr)
						}
						if wantErr != nil {
							if !errors.Is(gotErr, ErrNoAnswer) {
								t.Fatalf("unexpected error: %v", gotErr)
							}
							continue
						}
						if !sameAnswer(wantAns, gotAns) {
							t.Fatalf("zipf=%v seed=%d par=%d user=%d q=%+v:\n dijkstra %s maxdist=%x\n ch       %s maxdist=%x",
								zipf, seed, par, user, q, answerKey(wantAns), wantAns.MaxDistance, answerKey(gotAns), gotAns.MaxDistance)
						}
					}
					for user := 0; user < 70; user += 23 {
						wantTop, _, err := ref.QueryTopK(user, q, 3)
						if err != nil {
							t.Fatal(err)
						}
						gotTop, _, err := db.QueryTopK(user, q, 3)
						if err != nil {
							t.Fatal(err)
						}
						if len(wantTop) != len(gotTop) {
							t.Fatalf("zipf=%v seed=%d par=%d user=%d: top-k sizes differ (%d vs %d)",
								zipf, seed, par, user, len(wantTop), len(gotTop))
						}
						for i := range wantTop {
							if !sameAnswer(&wantTop[i], &gotTop[i]) {
								t.Fatalf("zipf=%v seed=%d par=%d user=%d top-k[%d]:\n dijkstra %s maxdist=%x\n ch       %s maxdist=%x",
									zipf, seed, par, user, i, answerKey(&wantTop[i]), wantTop[i].MaxDistance, answerKey(&gotTop[i]), gotTop[i].MaxDistance)
							}
						}
					}
				}
			}
		}
	}
}

// TestOracleConfigValidation covers the DistanceOracle config surface.
func TestOracleConfigValidation(t *testing.T) {
	net, err := GenerateSynthetic(SyntheticOptions{
		Seed: 3, RoadVertices: 60, Users: 25, POIs: 20, Topics: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DistanceOracle = "bogus"
	if _, err := Open(net, cfg); err == nil {
		t.Fatal("Open accepted an unknown DistanceOracle")
	}
	cfg.DistanceOracle = "" // empty defaults to hl
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.net.ds.Road.Oracle() == nil {
		t.Fatal("default config did not attach an oracle")
	}
	if !db.net.ds.Road.HasLabels() {
		t.Fatal("default config did not attach the hub-label oracle")
	}
	// Another oracle only once no DB is open over the network.
	db.Close()
	cfg.DistanceOracle = "ch"
	db, err = Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.net.ds.Road.Oracle() == nil || db.net.ds.Road.HasLabels() {
		t.Fatal("ch config must attach the label-free CH oracle")
	}
	db.Close()
	cfg.DistanceOracle = "dijkstra"
	db, err = Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.net.ds.Road.Oracle() != nil {
		t.Fatal("dijkstra config left an oracle attached")
	}
}
