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
// memo-on DB and a memo-off DB can receive the same update stream without
// sharing mutable state (Open does not clone the network it is given).
func twinNetworks(t testing.TB) (*Network, *Network) {
	t.Helper()
	gen := func() *Network {
		net, err := GenerateSynthetic(SyntheticOptions{
			Name: "sharedwork", Seed: 7,
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

// compareAnswers deep-compares Query and QueryTopK between the memo-on and
// memo-off DBs for a spread of users. This is the bit-identical gate: the
// shared-work layer must be invisible in every answer.
func compareAnswers(t *testing.T, on, off *DB, q Query, label string) {
	t.Helper()
	for _, u := range []int{0, 5, 11, 23, 37, 52} {
		a, _, errA := on.Query(u, q)
		b, _, errB := off.Query(u, q)
		if (errA == nil) != (errB == nil) || (errA != nil && !errors.Is(errA, errB) && !errors.Is(errB, errA)) {
			t.Fatalf("%s: user %d: error mismatch: memo-on %v, memo-off %v", label, u, errA, errB)
		}
		if errA == nil && !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: user %d: answers diverge:\n  memo-on:  %+v\n  memo-off: %+v", label, u, a, b)
		}
		ak, _, errA := on.QueryTopK(u, q, 3)
		bk, _, errB := off.QueryTopK(u, q, 3)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: user %d: top-k error mismatch: %v vs %v", label, u, errA, errB)
		}
		if !reflect.DeepEqual(ak, bk) {
			t.Fatalf("%s: user %d: top-k diverges:\n  memo-on:  %+v\n  memo-off: %+v", label, u, ak, bk)
		}
	}
}

// TestSharedWorkEquality is the acceptance gate for the shared-work layer:
// with the memo enabled, answers are bit-identical to solo execution at
// Parallelism 1 and 8 under every distance oracle, before and after a
// dynamic-update-plus-Compact cycle. The answer cache is off so every
// query actually reaches the engine.
func TestSharedWorkEquality(t *testing.T) {
	for _, oracle := range []string{"hl", "ch", "dijkstra"} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/P%d", oracle, par), func(t *testing.T) {
				netOn, netOff := twinNetworks(t)
				cfg := Config{
					RoadPivots: 3, SocialPivots: 3, LeafSize: 16, Fanout: 4,
					DistanceOracle: oracle, StrictOracle: true,
					Parallelism: par, CacheSize: 0,
				}
				on, err := Open(netOn, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfgOff := cfg
				cfgOff.DisableSharedWork = true
				off, err := Open(netOff, cfgOff)
				if err != nil {
					t.Fatal(err)
				}

				q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
				compareAnswers(t, on, off, q, "fresh")
				if st := on.SharedWorkStats(); !st.Enabled || st.BallHits+st.SweepHits == 0 {
					t.Fatalf("memo-on DB recorded no shared-work hits: %+v", st)
				}
				if st := off.SharedWorkStats(); st.Enabled {
					t.Fatalf("memo-off DB reports the memo enabled: %+v", st)
				}

				mutateBoth(t, on, off)
				compareAnswers(t, on, off, q, "post-update")
			})
		}
	}
}

// TestSharedWorkCancellation checks that cancelled and budget-starved
// queries interact safely with the memo: they fail or truncate the same
// way solo execution does, and they never leave a degraded entry behind —
// an unconstrained re-query still matches the memo-off twin exactly.
func TestSharedWorkCancellation(t *testing.T) {
	netOn, netOff := twinNetworks(t)
	cfg := Config{RoadPivots: 3, SocialPivots: 3, LeafSize: 16, Fanout: 4, CacheSize: 0}
	on, err := Open(netOn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := cfg
	cfgOff.DisableSharedWork = true
	off, err := Open(netOff, cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}

	// Warm the memo, then hit it with an already-cancelled context.
	if _, _, err := on.Query(0, q); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := on.QueryCtx(ctx, 5, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled QueryCtx returned %v, want context.Canceled", err)
	}

	// A budget far too small for any real work: the query must degrade the
	// same way solo execution does (truncated answer or a budget error),
	// never panic, and never publish a starved ball into the memo.
	qb := q
	qb.Budget = Budget{MaxSettledVertices: 1}
	for _, u := range []int{0, 5, 11} {
		ans, _, err := on.QueryCtx(context.Background(), u, qb)
		if err == nil && !ans.Truncated {
			t.Fatalf("user %d: starved budget returned an untruncated answer %+v", u, ans)
		}
	}

	// The memo must still be canonical: unconstrained queries agree with
	// the memo-off twin bit-for-bit.
	compareAnswers(t, on, off, q, "post-cancel")
}

// TestSharedWorkRaceStress is the -race satellite: concurrent queriers
// hammer a memo-enabled DB while an updater interleaves AddPOI, AddUser,
// AddFriendship and a mid-flight Compact. Mid-flight answers must be
// well-formed; once quiesced, a memo-off twin receiving the identical
// update stream must agree bit-for-bit (no stale ball was ever published),
// the road version must have bumped for the post-Compact updates, and the
// rebuilt memo must still be taking hits.
func TestSharedWorkRaceStress(t *testing.T) {
	netOn, netOff := twinNetworks(t)
	cfg := Config{RoadPivots: 3, SocialPivots: 3, LeafSize: 16, Fanout: 4, CacheSize: 0}
	on, err := Open(netOn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := cfg
	cfgOff.DisableSharedWork = true
	off, err := Open(netOff, cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2}
	users := []int{0, 5, 11, 23, 37, 52}

	var wg sync.WaitGroup
	var failed atomic.Bool
	const queriers = 6
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				u := users[(g+it)%len(users)]
				ans, _, err := on.Query(u, q)
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
	// The same deterministic update stream concurrency_test uses, with the
	// Compact placed so two AddPOIs land after it: the quiesced road
	// version must reflect those bumps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		topics := on.Network().NumTopics()
		for i := 0; i < 4; i++ {
			if _, err := on.AddPOI(float64(i), 0.5, i%topics); err != nil {
				t.Errorf("AddPOI: %v", err)
				failed.Store(true)
				return
			}
			interests := make([]float64, topics)
			interests[i%topics] = 0.9
			u, err := on.AddUser(0.5, float64(i), interests)
			if err != nil {
				t.Errorf("AddUser: %v", err)
				failed.Store(true)
				return
			}
			if _, err := on.AddFriendship(users[i], u); err != nil {
				t.Errorf("AddFriendship: %v", err)
				failed.Store(true)
				return
			}
			if i == 1 {
				if err := on.Compact(); err != nil {
					t.Errorf("Compact: %v", err)
					failed.Store(true)
					return
				}
			}
		}
	}()
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}

	// Every AddPOI appended its label row under the write lock while the
	// queriers merged against the table under the read lock.
	checkPOILabelTable(t, on, true, "quiesced")

	// Two AddPOIs ran after the Compact reset the memo, so the rebuilt
	// memo must have observed their version bumps — the signal that no
	// pre-update ball can have survived.
	if st := on.SharedWorkStats(); st.RoadVersion < 2 {
		t.Fatalf("road version = %d after post-Compact updates, want >= 2", st.RoadVersion)
	}

	// Replay the identical stream on the memo-off twin, then the final
	// networks agree and so must every answer.
	topics := off.Network().NumTopics()
	for i := 0; i < 4; i++ {
		if _, err := off.AddPOI(float64(i), 0.5, i%topics); err != nil {
			t.Fatal(err)
		}
		interests := make([]float64, topics)
		interests[i%topics] = 0.9
		u, err := off.AddUser(0.5, float64(i), interests)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := off.AddFriendship(users[i], u); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := off.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareAnswers(t, on, off, q, "quiesced")
	if st := on.SharedWorkStats(); st.BallHits+st.SweepHits == 0 {
		t.Fatalf("rebuilt memo took no hits during the quiesced comparison: %+v", st)
	}
}
