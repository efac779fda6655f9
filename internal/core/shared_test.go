package core

import (
	"reflect"
	"sync"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// TestSweepMemoCapacity checks the label memo's accounting: a miss then a
// hit sharing one instance, the reject-on-full path once the entry cap is
// reached (counted, and the per-query arena path still yields the exact
// label and a bit-identical M(u)), and no per-user state at all under an
// oracle without labels.
func TestSweepMemoCapacity(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{SharedWork: true})
	ar := e.acquireArena()
	defer e.releaseArena(ar)

	// Plain Dijkstra: refinement prices users by ball searches, so a query
	// leaves the sweep memo untouched.
	if _, _, err := e.Query(3, Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 2}); err != nil {
		t.Fatal(err)
	}
	if st := e.SharedWorkStats(); st.SweepEntries+int(st.SweepMisses+st.SweepHits) != 0 {
		t.Fatalf("plain oracle touched the sweep memo: %+v", st)
	}

	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	u := socialnet.UserID(3)
	got, ok := e.sharedUserLabel(u)
	if !ok {
		t.Fatal("sharedUserLabel miss-path failed")
	}
	if again, ok := e.sharedUserLabel(u); !ok || again != got {
		t.Fatal("second fetch did not share the memoized label")
	}
	if st := e.SharedWorkStats(); st.SweepMisses != 1 || st.SweepHits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.SweepHits, st.SweepMisses)
	}

	// Reject-on-full: fill the memo to its entry cap with placeholder
	// entries; a new user is turned away and counted, and the per-query
	// path still computes the exact label.
	sw := e.shared
	sw.mu.Lock()
	for id := len(ds.Users); len(sw.users) < sharedUserMaxEntries; id++ {
		sw.users[socialnet.UserID(id)] = &userEntry{}
	}
	sw.mu.Unlock()
	v := socialnet.UserID(9)
	if _, ok := e.sharedUserLabel(v); ok {
		t.Fatal("entry admitted beyond the cap")
	}
	if st := e.SharedWorkStats(); st.SweepRejected != 1 {
		t.Fatalf("sweep rejected = %d, want 1", st.SweepRejected)
	}
	want := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(want)
	ds.Road.AttachLabel(ds.Users[v].At, want)
	if l := e.userLabelWith(v, ar); !reflect.DeepEqual(l.Hubs, want.Hubs) || !reflect.DeepEqual(l.Dist, want.Dist) {
		t.Fatal("per-query path behind a full memo returned a different label")
	}

	// M(u) behind the full memo (arena label scratch) equals M(u) through a
	// fresh memo bit for bit, and every refused evaluation is counted.
	ball := []model.POIID{0, 3, 7, 11, 19}
	fresh := buildEngine(t, ds, Options{SharedWork: true})
	far := fresh.acquireArena()
	defer fresh.releaseArena(far)
	viaMemo := fresh.makeMOf(ball, nil, nil, far)
	viaArena := e.makeMOf(ball, nil, nil, ar)
	users := []socialnet.UserID{1, 5, 9, 13}
	for _, w := range users {
		if a, m := viaArena(w), viaMemo(w); a != m {
			t.Fatalf("user %d: M = %v behind a full memo, %v through the memo", w, a, m)
		}
	}
	if st := fresh.SharedWorkStats(); st.SweepMisses != int64(len(users)) {
		t.Fatalf("fresh memo misses = %d, want %d", st.SweepMisses, len(users))
	}
	if st := e.SharedWorkStats(); st.SweepRejected != int64(2+len(users)) {
		t.Fatalf("sweep rejected = %d, want %d", st.SweepRejected, 2+len(users))
	}
}

// TestSweepMemoLabels: under a hub-label oracle the memo shares attachment
// labels; values must match a freshly computed label and survive
// concurrent fetches.
func TestSweepMemoLabels(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{SharedWork: true})
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))

	u := socialnet.UserID(5)
	want := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(want)
	if !ds.Road.AttachLabel(ds.Users[u].At, want) {
		t.Fatal("no label oracle attached")
	}

	const callers = 8
	labels := make([]*roadnet.HubLabel, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			labels[i], _ = e.sharedUserLabel(u)
		}(i)
	}
	wg.Wait()
	for i, l := range labels {
		if l == nil {
			t.Fatalf("caller %d got no label", i)
		}
		if l != labels[0] {
			t.Fatalf("caller %d got a different label instance (no sharing)", i)
		}
		if !reflect.DeepEqual(l.Hubs, want.Hubs) || !reflect.DeepEqual(l.Dist, want.Dist) {
			t.Fatalf("memoized label differs from direct AttachLabel")
		}
	}
	if st := e.SharedWorkStats(); st.SweepMisses != 1 || st.SweepHits != callers-1 {
		t.Fatalf("label singleflight: hits=%d misses=%d, want %d/1", st.SweepHits, st.SweepMisses, callers-1)
	}
}

// TestSharedWorkDisabled: with Options.SharedWork off the memo is a
// transparent passthrough — no memo, zero stats, identical labels.
func TestSharedWorkDisabled(t *testing.T) {
	ds := smallDataset(t, 4)
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	e := buildEngine(t, ds, Options{})
	if _, ok := e.sharedUserLabel(1); ok {
		t.Fatal("disabled sharedUserLabel claimed a hit")
	}
	want := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(want)
	ds.Road.AttachLabel(ds.Users[1].At, want)
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	if l := e.userLabelWith(1, ar); !reflect.DeepEqual(l.Hubs, want.Hubs) || !reflect.DeepEqual(l.Dist, want.Dist) {
		t.Fatal("disabled memo changed the user's label")
	}
	if st := e.SharedWorkStats(); st != (SharedWorkStats{}) {
		t.Fatalf("disabled stats = %+v, want zero", st)
	}
}
