package gpssn

import (
	"errors"
	"reflect"
	"testing"
)

func TestAnswerCacheHitsAndInvalidation(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{
		RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2, CacheSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 0.5, Theta: 0.5, Radius: 1.5}
	a1, _, err := db.Query(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if db.cache.len() != 1 {
		t.Fatalf("cache len = %d, want 1", db.cache.len())
	}
	a2, _, err := db.Query(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.MaxDistance != a2.MaxDistance || a1.Anchor != a2.Anchor {
		t.Error("cached answer differs")
	}
	// Mutating the returned answer must not corrupt the cache.
	a2.Users[0] = 99
	a3, _, _ := db.Query(0, q)
	if a3.Users[0] == 99 {
		t.Error("cache returned aliased answer")
	}

	// "No answer" outcomes are cached too.
	hard := Query{GroupSize: 5, Gamma: 5, Theta: 0.5, Radius: 1}
	if _, _, err := db.Query(0, hard); !errors.Is(err, ErrNoAnswer) {
		t.Fatal("expected no answer")
	}
	if _, _, err := db.Query(0, hard); !errors.Is(err, ErrNoAnswer) {
		t.Fatal("cached no-answer must repeat")
	}
	if db.cache.len() != 2 {
		t.Fatalf("cache len = %d, want 2", db.cache.len())
	}

	// A dynamic update invalidates everything.
	if _, err := db.AddPOI(1.0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if db.cache.len() != 0 {
		t.Errorf("cache should be empty after update, len = %d", db.cache.len())
	}
	// And the post-update answer may legitimately differ.
	if _, _, err := db.Query(0, q); err != nil {
		t.Fatal(err)
	}
}

func TestAnswerCacheLRUEviction(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{
		RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2, CacheSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 0.1, Theta: 0.1, Radius: 1.5}
	for _, u := range []int{0, 1, 2} {
		if _, _, err := db.Query(u, q); err != nil && !errors.Is(err, ErrNoAnswer) {
			t.Fatal(err)
		}
	}
	if db.cache.len() != 2 {
		t.Errorf("cache len = %d, want 2 (LRU cap)", db.cache.len())
	}
}

// TestAnswerCacheEvictionOrder pins the LRU discipline at capacity: the
// least-recently-used key is the one evicted, and both get hits and put
// updates refresh recency.
func TestAnswerCacheEvictionOrder(t *testing.T) {
	key := func(u int) cacheKey { return cacheKey{user: u, q: Query{GroupSize: 2}, k: 1} }
	c := newAnswerCache(2)
	c.put(key(0), nil, Stats{}, false)
	c.put(key(1), nil, Stats{}, false)
	c.put(key(2), nil, Stats{}, false) // evicts key(0), the least recent
	if _, _, _, ok := c.get(key(0)); ok {
		t.Fatal("least-recent key survived eviction")
	}
	for _, u := range []int{1, 2} {
		if _, _, _, ok := c.get(key(u)); !ok {
			t.Fatalf("key(%d) evicted out of order", u)
		}
	}

	// A get refreshes recency: after touching key(1), inserting key(3)
	// must evict key(2) instead.
	if _, _, _, ok := c.get(key(1)); !ok {
		t.Fatal("key(1) missing")
	}
	c.put(key(3), nil, Stats{}, false)
	if _, _, _, ok := c.get(key(2)); ok {
		t.Fatal("get did not refresh recency: key(2) should have been evicted")
	}
	if _, _, _, ok := c.get(key(1)); !ok {
		t.Fatal("refreshed key(1) was evicted")
	}

	// A put updating an existing key refreshes recency too.
	c.put(key(1), nil, Stats{}, true)
	c.put(key(4), nil, Stats{}, false) // must evict key(3), not key(1)
	if _, _, _, ok := c.get(key(3)); ok {
		t.Fatal("put-update did not refresh recency: key(3) should have been evicted")
	}
	if _, _, found, ok := c.get(key(1)); !ok || !found {
		t.Fatal("updated key(1) lost its refreshed entry")
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
}

// TestAnswerCacheInvalidationPerUpdateKind verifies that every dynamic
// update kind — AddPOI, AddUser, AddFriendship, and Compact — wholesale
// invalidates the answer cache (any update can change any answer).
func TestAnswerCacheInvalidationPerUpdateKind(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{
		RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2, CacheSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 0.1, Theta: 0.1, Radius: 1.5}
	warm := func() {
		t.Helper()
		if _, _, err := db.Query(0, q); err != nil && !errors.Is(err, ErrNoAnswer) {
			t.Fatal(err)
		}
		if db.cache.len() == 0 {
			t.Fatal("cache not warmed")
		}
	}

	warm()
	userID, err := db.AddUser(0.4, 0.6, []float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if db.cache.len() != 0 {
		t.Fatalf("AddUser left %d cached entries", db.cache.len())
	}

	warm()
	if _, err := db.AddFriendship(0, userID); err != nil {
		t.Fatal(err)
	}
	if db.cache.len() != 0 {
		t.Fatalf("AddFriendship left %d cached entries", db.cache.len())
	}

	warm()
	if _, err := db.AddPOI(1.0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if db.cache.len() != 0 {
		t.Fatalf("AddPOI left %d cached entries", db.cache.len())
	}

	warm()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.cache.len() != 0 {
		t.Fatalf("Compact left %d cached entries", db.cache.len())
	}
}

// TestQueryTopKCache verifies that QueryTopK goes through the answer cache
// like Query: hits are keyed by (user, query, k), the empty "nothing
// feasible" outcome is cached too, returned slices never alias the cache,
// and dynamic updates invalidate TopK entries.
func TestQueryTopKCache(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{
		RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2, CacheSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 0.5, Theta: 0.5, Radius: 1.5}
	a1, st1, err := db.QueryTopK(0, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) == 0 {
		t.Fatal("expected answers")
	}
	if st1.CacheHit {
		t.Fatal("first TopK call reported a cache hit")
	}
	if db.cache.len() != 1 {
		t.Fatalf("cache len = %d, want 1", db.cache.len())
	}
	a2, st2, err := db.QueryTopK(0, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Error("second TopK call missed the cache")
	}
	if len(a2) != len(a1) || a2[0].MaxDistance != a1[0].MaxDistance {
		t.Error("cached TopK answers differ")
	}
	// Different k is a different entry.
	if _, st, err := db.QueryTopK(0, q, 2); err != nil || st.CacheHit {
		t.Fatalf("k=2 after k=3 must miss (err=%v, hit=%v)", err, st != nil && st.CacheHit)
	}
	if db.cache.len() != 2 {
		t.Fatalf("cache len = %d, want 2", db.cache.len())
	}
	// Mutating a returned slice must not corrupt the cache.
	a2[0].Users[0] = 99
	a3, _, err := db.QueryTopK(0, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a3[0].Users[0] == 99 {
		t.Error("cache returned aliased TopK answer")
	}

	// The empty outcome is cached: second call hits and stays empty.
	hard := Query{GroupSize: 5, Gamma: 5, Theta: 0.5, Radius: 1}
	e1, st, err := db.QueryTopK(0, hard, 3)
	if err != nil || len(e1) != 0 {
		t.Fatalf("hard query: answers=%v err=%v, want empty, nil", e1, err)
	}
	if st.CacheHit {
		t.Fatal("first hard TopK reported a hit")
	}
	e2, st, err := db.QueryTopK(0, hard, 3)
	if err != nil || len(e2) != 0 {
		t.Fatalf("cached hard query: answers=%v err=%v, want empty, nil", e2, err)
	}
	if !st.CacheHit {
		t.Error("empty TopK outcome was not cached")
	}

	// A dynamic update invalidates TopK entries with everything else.
	if _, err := db.AddPOI(1.0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if db.cache.len() != 0 {
		t.Errorf("cache should be empty after update, len = %d", db.cache.len())
	}
	if _, st, err := db.QueryTopK(0, q, 3); err != nil || st.CacheHit {
		t.Fatalf("post-update TopK must recompute (err=%v, hit=%v)", err, st != nil && st.CacheHit)
	}
}

// TestAnswerCachePutClones is the aliasing regression test for the put
// path: the cache must deep-clone on insert AND on overwrite, so a caller
// mutating the slice it passed in — or an answer it got back — can never
// corrupt a cached entry.
func TestAnswerCachePutClones(t *testing.T) {
	key := cacheKey{user: 1, q: Query{GroupSize: 2}, k: 1}
	c := newAnswerCache(4)

	// Insert path: mutate the caller's backing array after put.
	mine := []Answer{{Users: []int{1, 2}, POIs: []int{7}, Anchor: 7, MaxDistance: 1.5}}
	c.put(key, mine, Stats{}, true)
	mine[0].Users[0] = 99
	mine[0].POIs[0] = 99
	got, _, _, ok := c.get(key)
	if !ok || got[0].Users[0] != 1 || got[0].POIs[0] != 7 {
		t.Fatalf("insert path aliased caller slices: %+v", got)
	}

	// Overwrite path (the historical bug): refresh the same key, then
	// mutate what was passed in.
	fresh := []Answer{{Users: []int{3, 4}, POIs: []int{8}, Anchor: 8, MaxDistance: 2.5}}
	c.put(key, fresh, Stats{}, true)
	fresh[0].Users[1] = -1
	got, _, _, ok = c.get(key)
	if !ok || got[0].Users[1] != 4 {
		t.Fatalf("overwrite path aliased caller slices: %+v", got)
	}

	// And mutating an answer handed back by get must not poison a re-get.
	got[0].Users[0] = -7
	again, _, _, _ := c.get(key)
	if again[0].Users[0] != 3 {
		t.Fatalf("get handed out a cache-owned slice: %+v", again)
	}
}

func TestAnswerCacheDisabledByDefault(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if db.cache != nil {
		t.Error("cache should be nil when CacheSize is 0")
	}
	q := Query{GroupSize: 2, Gamma: 0.1, Theta: 0.1, Radius: 1.5}
	if _, _, err := db.Query(0, q); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatal(err)
	}
}

// TestQueryIsTopOne pins the one query path: Query is QueryTopK at k = 1.
// A DB asked through Query and a twin asked through QueryTopK(·, 1) agree
// in answers and Stats, and each entry point then hits the cache entry
// the other filled, with the same answer.
func TestQueryIsTopOne(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALPath = ""
	cfg.CacheSize = 256
	byQuery, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	byTopK, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	noTime := func(st *Stats) Stats {
		c := *st
		c.CPUTime, c.Raw.CPUTime = 0, 0
		return c
	}
	found := 0
	for _, q := range walQueries {
		for user := 0; user < 60; user += 3 {
			ans, st, err := byQuery.Query(user, q)
			top, tst, terr := byTopK.QueryTopK(user, q, 1)
			if terr != nil || st.CacheHit || tst.CacheHit {
				t.Fatalf("user %d: QueryTopK err=%v, hits %v/%v", user, terr, st.CacheHit, tst.CacheHit)
			}
			if noTime(st) != noTime(tst) {
				t.Fatalf("user %d: Stats differ:\n Query     %+v\n QueryTopK %+v", user, *st, *tst)
			}
			if err != nil {
				if !errors.Is(err, ErrNoAnswer) || len(top) != 0 {
					t.Fatalf("user %d: Query err=%v, QueryTopK %d answers", user, err, len(top))
				}
			} else if len(top) != 1 || !reflect.DeepEqual(*ans, top[0]) {
				t.Fatalf("user %d: Query %+v, QueryTopK %+v", user, *ans, top)
			} else {
				found++
			}
			// Each entry point hits the entry the other one filled.
			hitTop, hst, _ := byQuery.QueryTopK(user, q, 1)
			hitAns, ast, herr := byTopK.Query(user, q)
			if !hst.CacheHit || !ast.CacheHit {
				t.Fatalf("user %d: cross hits %v/%v, want both", user, hst.CacheHit, ast.CacheHit)
			}
			if (herr == nil) != (len(hitTop) == 1) || herr == nil && !reflect.DeepEqual(*hitAns, hitTop[0]) {
				t.Fatalf("user %d: cached Query %+v (err %v), cached QueryTopK %+v", user, hitAns, herr, hitTop)
			}
		}
	}
	if found == 0 {
		t.Fatal("no query found an answer")
	}
}
