package core

import (
	"math"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// TestVertexDistCacheCaps is the regression test for the cache bounds: the
// entry cap and the byte accounting must hold under any put sequence, puts
// beyond either cap must be rejected (and counted), and racing writers must
// resolve first-write-wins.
func TestVertexDistCacheCaps(t *testing.T) {
	c := newVertexDistCacheWith(3, 1<<20)
	if !c.putArray(1, make([]float64, 10)) {
		t.Fatal("first put rejected below cap")
	}
	if c.putArray(1, make([]float64, 10)) {
		t.Fatal("duplicate put accepted (must be first-write-wins)")
	}
	c.putArray(2, make([]float64, 10))
	lbl := &roadnet.HubLabel{Hubs: []int32{0, 5}, Dist: []float64{0, 1}}
	if !c.putLabelCopy(3, lbl) {
		t.Fatal("label put rejected below cap")
	}
	if c.putArray(4, make([]float64, 10)) {
		t.Fatal("put accepted beyond the entry cap")
	}
	if c.putLabelCopy(5, lbl) {
		t.Fatal("label put accepted beyond the entry cap")
	}
	if got := c.entries(); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	if got := c.sizeBytes(); got != 8*10+8*10+12*2 {
		t.Fatalf("sizeBytes = %d, want %d", got, 8*10+8*10+12*2)
	}
	if c.rejected != 2 {
		t.Fatalf("rejected = %d, want 2", c.rejected)
	}

	// Byte cap: a 100-byte budget fits one 80-byte array, then rejects a
	// second while still admitting a 12-byte label.
	c2 := newVertexDistCacheWith(100, 100)
	if !c2.putArray(1, make([]float64, 10)) {
		t.Fatal("80-byte array rejected under 100-byte cap")
	}
	if c2.putArray(2, make([]float64, 10)) {
		t.Fatal("put accepted beyond the byte cap")
	}
	if !c2.putLabelCopy(3, &roadnet.HubLabel{Hubs: []int32{1}, Dist: []float64{2}}) {
		t.Fatal("12-byte label rejected with 20 bytes of headroom")
	}
	if got := c2.sizeBytes(); got > 100 {
		t.Fatalf("sizeBytes = %d exceeds the 100-byte cap", got)
	}
}

// TestMOfHonorsCacheCaps hammers the refinement evaluator with every user
// against a cache far smaller than the user count: the cap must hold
// throughout, rejected entries must be recomputed with identical values,
// and the same holds on the hub-label path.
func TestMOfHonorsCacheCaps(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{})
	ball := make([]model.POIID, 0, 10)
	for o := 0; o < 10; o++ {
		ball = append(ball, model.POIID(o))
	}

	// Ground truth from uncached full searches (no oracle attached yet).
	want := make([]float64, len(ds.Users))
	for u := range ds.Users {
		want[u] = mFromVertexDist(e, socialnet.UserID(u), ball, e.userVertexDist(socialnet.UserID(u), nil))
	}

	const cap = 8
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	cache := newVertexDistCacheWith(cap, 1<<26)
	mOf := e.makeMOf(cache, ball, nil, nil, nil, ar)
	for u := range ds.Users {
		if got := mOf(socialnet.UserID(u)); math.Abs(got-want[u]) > 1e-9 {
			t.Fatalf("array mode: mOf(%d) = %v, want %v", u, got, want[u])
		}
		if got := cache.entries(); got > cap {
			t.Fatalf("array mode: cache grew to %d entries (cap %d)", got, cap)
		}
	}
	if cache.rejected == 0 {
		t.Fatalf("array mode: expected rejected puts with %d users and cap %d", len(ds.Users), cap)
	}

	// Label mode: same values (up to float association order), same caps,
	// and byte usage reflecting label-sized entries rather than O(V) arrays.
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	lcache := newVertexDistCacheWith(cap, 1<<26)
	mOfL := e.makeMOf(lcache, ball, nil, nil, nil, ar)
	for u := range ds.Users {
		got := mOfL(socialnet.UserID(u))
		if math.Abs(got-want[u]) > 1e-9*math.Max(1, want[u]) {
			t.Fatalf("label mode: mOf(%d) = %v, want %v", u, got, want[u])
		}
		if n := lcache.entries(); n > cap {
			t.Fatalf("label mode: cache grew to %d entries (cap %d)", n, cap)
		}
	}
	if lcache.rejected == 0 {
		t.Fatal("label mode: expected rejected puts")
	}
	perEntry := lcache.sizeBytes() / int64(lcache.entries())
	if arrayBytes := int64(8 * ds.Road.NumVertices()); perEntry >= arrayBytes {
		t.Fatalf("label entries average %d bytes, not smaller than an O(V) array (%d)", perEntry, arrayBytes)
	}
	ds.Road.SetDistanceOracle(nil)
}
