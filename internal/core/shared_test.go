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

// TestBallMemoSingleflight hammers one anchor from many goroutines: the
// build must run exactly once (one miss, the rest hits), every caller must
// receive the same ball as a solo ballAround, and the copy-on-read rule
// must hold — mutating a returned slice cannot leak into the memo.
func TestBallMemoSingleflight(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{SharedWork: true})
	want := e.ballAround(0, 2, nil) // memo-off ground truth (direct build)

	const callers = 16
	balls := make([][]model.POIID, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			balls[i], _ = e.anchorBall(0, 2, nil, e.acquireArena())
		}(i)
	}
	wg.Wait()
	for i, b := range balls {
		if !reflect.DeepEqual(b, want) {
			t.Fatalf("caller %d ball = %v, want %v", i, b, want)
		}
	}
	st := e.SharedWorkStats()
	if st.BallMisses != 1 {
		t.Fatalf("ball misses = %d, want 1 (singleflight)", st.BallMisses)
	}
	if st.BallHits != callers-1 {
		t.Fatalf("ball hits = %d, want %d", st.BallHits, callers-1)
	}

	// Copy-on-read: clobber a returned ball, refetch, must be pristine.
	balls[0][0] = -999
	again, _ := e.anchorBall(0, 2, nil, e.acquireArena())
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("memo poisoned by caller mutation: %v, want %v", again, want)
	}
}

// TestBallMemoInvalidation adds POIs near and far from memoized anchors:
// only balls the new POI could join (Euclidean prefilter) may be evicted,
// the road version must bump on every AddPOI, and a post-update fetch must
// return the fresh ball — the no-stale-ball guarantee.
func TestBallMemoInvalidation(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{SharedWork: true})
	anchor := model.POIID(0)
	loc := ds.POIs[anchor].Loc
	before, _ := e.anchorBall(anchor, 2, nil, e.acquireArena())

	// A POI Euclidean-far from the anchor: the memoized ball must survive
	// (no eviction) and stay correct — the new POI cannot be a member.
	// Borrow the attachment of the existing POI farthest from the anchor.
	farSrc, farDist := anchor, 0.0
	for id := range ds.POIs {
		if d := ds.POIs[id].Loc.Dist(loc); d > farDist {
			farSrc, farDist = model.POIID(id), d
		}
	}
	if farDist <= 2 {
		t.Skipf("no POI farther than the radius (max %v)", farDist)
	}
	far := model.POI{
		ID: model.POIID(len(ds.POIs)), At: ds.POIs[farSrc].At,
		Loc: ds.POIs[farSrc].Loc, Keywords: []int{0},
	}
	if err := e.AddPOI(far); err != nil {
		t.Fatalf("AddPOI(far): %v", err)
	}
	st := e.SharedWorkStats()
	if st.RoadVersion != 1 {
		t.Fatalf("road version = %d after one AddPOI, want 1", st.RoadVersion)
	}
	if st.BallEvictions != 0 {
		t.Fatalf("far POI evicted %d balls; Euclidean prefilter should keep them", st.BallEvictions)
	}
	if got, _ := e.anchorBall(anchor, 2, nil, e.acquireArena()); !reflect.DeepEqual(got, before) {
		t.Fatalf("ball changed after far AddPOI: %v, want %v", got, before)
	}

	// A POI right on the anchor: its ball entry must be evicted and the
	// refetched ball must match a fresh solo build (which includes the
	// new POI through the delta scan) — never the stale memo entry.
	near := model.POI{
		ID: model.POIID(len(ds.POIs)), At: ds.POIs[anchor].At,
		Loc: loc, Keywords: []int{0},
	}
	if err := e.AddPOI(near); err != nil {
		t.Fatalf("AddPOI(near): %v", err)
	}
	st = e.SharedWorkStats()
	if st.RoadVersion != 2 {
		t.Fatalf("road version = %d after two AddPOIs, want 2", st.RoadVersion)
	}
	if st.BallEvictions == 0 {
		t.Fatal("near POI evicted nothing; stale ball would be served")
	}
	want := e.ballAround(anchor, 2, nil)
	got, _ := e.anchorBall(anchor, 2, nil, e.acquireArena())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-update ball = %v, want fresh %v", got, want)
	}
	member := false
	for _, id := range got {
		if id == near.ID {
			member = true
		}
	}
	if !member {
		t.Fatalf("new POI %d missing from its anchor's refetched ball %v", near.ID, got)
	}
}

// TestBallMemoBudgetDiscipline: a memo hit charges the metered build cost,
// and a budget too small for that charge yields the same degenerate
// {anchor} ball a solo tripped build would — never a full ball the query
// didn't pay for, and never a degenerate entry in the memo.
func TestBallMemoBudgetDiscipline(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{SharedWork: true})
	anchor, full := model.POIID(-1), []model.POIID(nil)
	for a := range ds.POIs {
		if b, _ := e.anchorBall(model.POIID(a), 4, nil, e.acquireArena()); len(b) >= 2 {
			anchor, full = model.POIID(a), b
			break
		}
	}
	if anchor < 0 {
		t.Fatal("no anchor with a non-trivial radius-4 ball")
	}

	tiny := roadnet.NewCheckpoint(nil, nil, 1)
	got, _ := e.anchorBall(anchor, 4, tiny, e.acquireArena())
	if len(got) != 1 || got[0] != anchor {
		t.Fatalf("budget-tripped hit returned %v, want degenerate [%d]", got, anchor)
	}
	if !tiny.Exhausted() {
		t.Fatal("1-work budget did not trip on the memo charge")
	}
	// The entry itself must still be canonical for the next caller.
	again, _ := e.anchorBall(anchor, 4, roadnet.NewCheckpoint(nil, nil, 1<<40), e.acquireArena())
	if !reflect.DeepEqual(again, full) {
		t.Fatalf("entry degraded after tripped hit: %v, want %v", again, full)
	}
}

// TestSweepMemoCapacity checks the label memo's accounting: a miss then a
// hit sharing one instance, the reject-on-full path once the entry cap is
// reached (counted, and the per-query path still yields the exact label),
// and no per-user state at all under an oracle without labels.
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
	if l := e.userLabelWith(newVertexDistCache(), v, ar); !reflect.DeepEqual(l.Hubs, want.Hubs) || !reflect.DeepEqual(l.Dist, want.Dist) {
		t.Fatal("per-query path behind a full memo returned a different label")
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

// TestSharedWorkDisabled: with Options.SharedWork off the helpers must be
// transparent passthroughs — no memo, zero stats, identical values.
func TestSharedWorkDisabled(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{})
	ball, tl := e.anchorBall(0, 2, nil, e.acquireArena())
	if tl != nil {
		t.Fatal("disabled anchorBall returned shared labels")
	}
	if want := e.ballAround(0, 2, nil); !reflect.DeepEqual(ball, want) {
		t.Fatalf("disabled anchorBall = %v, want %v", ball, want)
	}
	if _, ok := e.sharedUserLabel(1); ok {
		t.Fatal("disabled sharedUserLabel claimed a hit")
	}
	if st := e.SharedWorkStats(); st.Enabled || st.BallMisses != 0 {
		t.Fatalf("disabled stats = %+v, want zero", st)
	}
}
