package gpssn

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// twinNetworks generates two independent but identical networks so a
// parallel DB and its sequential twin can receive the same update stream
// without sharing mutable state (Open does not clone the network it is
// given).
func twinNetworks(t testing.TB) (*Network, *Network) {
	t.Helper()
	gen := func() *Network {
		net, err := GenerateSynthetic(SyntheticOptions{
			Name: "paralleltwin", Seed: 7,
			RoadVertices: 120, Users: 60, POIs: 40, Topics: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	return gen(), gen()
}

// mutateBoth applies the identical dynamic-update stream to both DBs so
// their networks stay twins; it mirrors the mix in concurrency_test.go.
func mutateBoth(t testing.TB, dbs ...*DB) {
	t.Helper()
	for _, db := range dbs {
		topics := db.Network().NumTopics()
		for i := 0; i < 3; i++ {
			if _, err := db.AddPOI(float64(i)+0.25, 0.75, i%topics); err != nil {
				t.Fatalf("AddPOI: %v", err)
			}
			interests := make([]float64, topics)
			interests[i%topics] = 0.8
			u, err := db.AddUser(0.75, float64(i)+0.25, interests)
			if err != nil {
				t.Fatalf("AddUser: %v", err)
			}
			if _, err := db.AddFriendship(i, u); err != nil {
				t.Fatalf("AddFriendship: %v", err)
			}
		}
		if err := db.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	}
}

// compareAnswers deep-compares Query and QueryTopK between two DBs over
// twin networks for a spread of users. This is the bit-identical gate:
// how refinement is scheduled must be invisible in every answer.
func compareAnswers(t *testing.T, a, b *DB, q Query, label string) {
	t.Helper()
	for _, u := range []int{0, 5, 11, 23, 37, 52} {
		x, _, errA := a.Query(u, q)
		y, _, errB := b.Query(u, q)
		if (errA == nil) != (errB == nil) || (errA != nil && !errors.Is(errA, errB) && !errors.Is(errB, errA)) {
			t.Fatalf("%s: user %d: error mismatch: %v vs %v", label, u, errA, errB)
		}
		if errA == nil && !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: user %d: answers diverge:\n  %+v\n  %+v", label, u, x, y)
		}
		xk, _, errA := a.QueryTopK(u, q, 3)
		yk, _, errB := b.QueryTopK(u, q, 3)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: user %d: top-k error mismatch: %v vs %v", label, u, errA, errB)
		}
		if !reflect.DeepEqual(xk, yk) {
			t.Fatalf("%s: user %d: top-k diverges:\n  %+v\n  %+v", label, u, xk, yk)
		}
	}
}

// openTwins opens cfg at Parallelism p and its Parallelism 1 twin over
// twin networks. The answer cache is off so every query reaches the
// engine.
func openTwins(t *testing.T, cfg Config, p int) (par, seq *DB) {
	t.Helper()
	netPar, netSeq := twinNetworks(t)
	cfg.RoadPivots, cfg.SocialPivots, cfg.LeafSize, cfg.Fanout, cfg.CacheSize = 3, 3, 16, 4, 0
	cfg.Parallelism = p
	par, err := Open(netPar, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 1
	seq, err = Open(netSeq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return par, seq
}

// The three SharedWork gates are named for the cross-query memo they
// used to compare against a memo-off twin; the engine keeps no state
// across queries any more, so each now checks a DB against its
// Parallelism 1 twin. The names stay because `make tie-check` and CI run
// them by name.

// TestSharedWorkEquality is the tie gate for intra-query parallelism:
// answers at Parallelism 1 and 8 are bit-identical to an independently
// built sequential twin under every distance oracle, before and after a
// dynamic-update-plus-Compact cycle.
func TestSharedWorkEquality(t *testing.T) {
	for _, oracle := range []string{"hl", "ch", "dijkstra"} {
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/P%d", oracle, p), func(t *testing.T) {
				par, seq := openTwins(t, Config{DistanceOracle: oracle, StrictOracle: true}, p)
				q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
				compareAnswers(t, par, seq, q, "fresh")
				mutateBoth(t, par, seq)
				compareAnswers(t, par, seq, q, "post-update")
			})
		}
	}
}

// TestSharedWorkCancellation checks that cancelled and budget-starved
// queries on the parallel DB fail or truncate cleanly and leave nothing
// behind: an unconstrained re-query still matches the sequential twin
// exactly.
func TestSharedWorkCancellation(t *testing.T) {
	par, seq := openTwins(t, Config{}, 8)
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}

	if _, _, err := par.Query(0, q); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := par.QueryCtx(ctx, 5, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled QueryCtx returned %v, want context.Canceled", err)
	}

	// A budget far too small for any real work: the query must degrade
	// (truncated answer or a budget error) and never panic.
	qb := q
	qb.Budget = Budget{MaxSettledVertices: 1}
	for _, u := range []int{0, 5, 11} {
		ans, _, err := par.QueryCtx(context.Background(), u, qb)
		if err == nil && !ans.Truncated {
			t.Fatalf("user %d: starved budget returned an untruncated answer %+v", u, ans)
		}
	}

	compareAnswers(t, par, seq, q, "post-cancel")
}

// TestSharedWorkRaceStress is the -race satellite: concurrent queriers
// hammer a Parallelism 8 DB while an updater interleaves AddPOI, AddUser,
// AddFriendship and a mid-flight Compact. Mid-flight answers must be
// well-formed; once quiesced, the sequential twin receiving the identical
// update stream must agree bit-for-bit, and a road edge must release the
// POI label table.
func TestSharedWorkRaceStress(t *testing.T) {
	par, seq := openTwins(t, Config{}, 8)
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
	users := []int{0, 5, 11, 23, 37, 52}

	// The same deterministic update stream concurrency_test uses, with a
	// Compact after the second round that swaps in a fresh engine.
	update := func(db *DB) error {
		topics := db.Network().NumTopics()
		for i := 0; i < 4; i++ {
			if _, err := db.AddPOI(float64(i), 0.5, i%topics); err != nil {
				return fmt.Errorf("AddPOI: %w", err)
			}
			interests := make([]float64, topics)
			interests[i%topics] = 0.9
			u, err := db.AddUser(0.5, float64(i), interests)
			if err != nil {
				return fmt.Errorf("AddUser: %w", err)
			}
			if _, err := db.AddFriendship(users[i], u); err != nil {
				return fmt.Errorf("AddFriendship: %w", err)
			}
			if i == 1 {
				if err := db.Compact(); err != nil {
					return fmt.Errorf("Compact: %w", err)
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	var failed atomic.Bool
	const queriers = 6
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				u := users[(g+it)%len(users)]
				ans, _, err := par.Query(u, q)
				if err != nil && !errors.Is(err, ErrNoAnswer) {
					t.Errorf("Query(%d): %v", u, err)
					failed.Store(true)
					return
				}
				if err == nil && (len(ans.Users) != q.GroupSize || ans.MaxDistance < 0) {
					t.Errorf("Query(%d): malformed answer %+v", u, ans)
					failed.Store(true)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := update(par); err != nil {
			t.Error(err)
			failed.Store(true)
		}
	}()
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}

	// Every AddPOI appended its label row under the write lock while the
	// queriers merged against the table under the read lock.
	checkPOILabelTable(t, par, true, "quiesced")

	// Replay the identical stream on the sequential twin, then the final
	// networks agree and so must every answer.
	if err := update(seq); err != nil {
		t.Fatal(err)
	}
	compareAnswers(t, par, seq, q, "quiesced")

	// A road edge installs the delta-overlay, which exposes no labels:
	// AddRoadEdge must release the POI label table, and answers through
	// the overlay still agree.
	for _, db := range []*DB{par, seq} {
		if _, err := db.AddRoadEdge(0, db.Network().NumIntersections()-1); err != nil {
			t.Fatal(err)
		}
		checkPOILabelTable(t, db, false, "after AddRoadEdge")
	}
	compareAnswers(t, par, seq, q, "post-road-edge")
}

// TestDeprecatedSharedWorkShims pins the inert compatibility fields:
// DisableSharedWork changes no answer under any oracle, SharedWorkStats is
// always the zero value and MemoryStats reports no memo bytes.
func TestDeprecatedSharedWorkShims(t *testing.T) {
	for _, oracle := range []string{"hl", "ch", "dijkstra"} {
		t.Run(oracle, func(t *testing.T) {
			netOn, netOff := twinNetworks(t)
			cfg := Config{
				RoadPivots: 3, SocialPivots: 3, LeafSize: 16, Fanout: 4,
				DistanceOracle: oracle, StrictOracle: true, CacheSize: 0,
			}
			on, err := Open(netOn, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.DisableSharedWork = true
			off, err := Open(netOff, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareAnswers(t, on, off, Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}, oracle)
			for _, db := range []*DB{on, off} {
				if st := db.SharedWorkStats(); st != (SharedWorkStats{}) {
					t.Errorf("SharedWorkStats = %+v, want the zero value", st)
				}
				if mb := db.MemoryStats().MemoBytes; mb != 0 {
					t.Errorf("MemoBytes = %d, want 0", mb)
				}
			}
		})
	}
}
