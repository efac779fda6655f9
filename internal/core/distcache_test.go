package core

import (
	"math"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// TestVertexDistCacheCaps is the regression test for the cache bounds: the
// entry cap and the byte accounting must hold under any put sequence, puts
// beyond either cap must be rejected (and counted), racing writers must
// resolve first-write-wins, and the cache must own its copies.
func TestVertexDistCacheCaps(t *testing.T) {
	lbl := &roadnet.HubLabel{Hubs: []int32{0, 5}, Dist: []float64{0, 1}}
	c := newVertexDistCacheWith(3, 1<<20)
	if !c.putLabelCopy(1, lbl) {
		t.Fatal("first put rejected below cap")
	}
	if c.putLabelCopy(1, lbl) {
		t.Fatal("duplicate put accepted (must be first-write-wins)")
	}
	c.putLabelCopy(2, lbl)
	c.putLabelCopy(3, lbl)
	if c.putLabelCopy(4, lbl) {
		t.Fatal("put accepted beyond the entry cap")
	}
	if got := c.entries(); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	if got := c.sizeBytes(); got != 3*12*2 {
		t.Fatalf("sizeBytes = %d, want %d", got, 3*12*2)
	}
	if c.rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.rejected)
	}
	lbl.Dist[1] = 99 // the caller's scratch is overwritten by its next use
	if got, _ := c.getLabel(1); got.Dist[1] != 1 {
		t.Fatalf("cached label aliases the caller's buffer: dist %v", got.Dist)
	}

	// Byte cap: a 40-byte budget fits one 24-byte label, then rejects a
	// second while still admitting a 12-byte one.
	c2 := newVertexDistCacheWith(100, 40)
	if !c2.putLabelCopy(1, lbl) {
		t.Fatal("24-byte label rejected under 40-byte cap")
	}
	if c2.putLabelCopy(2, lbl) {
		t.Fatal("put accepted beyond the byte cap")
	}
	if !c2.putLabelCopy(3, &roadnet.HubLabel{Hubs: []int32{1}, Dist: []float64{2}}) {
		t.Fatal("12-byte label rejected with 16 bytes of headroom")
	}
	if got := c2.sizeBytes(); got != 36 {
		t.Fatalf("sizeBytes = %d, want 36", got)
	}
}

// ballTruth is M(u) from per-pair Graph.DistAttach calls: the ground truth
// every evaluator must reproduce up to float association order.
func ballTruth(ds *model.Dataset, u socialnet.UserID, ball []model.POIID) float64 {
	m := 0.0
	for _, o := range ball {
		m = math.Max(m, ds.Road.DistAttach(ds.Users[u].At, ds.POIs[o].At))
	}
	return m
}

func sameDist(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, b) }

// TestMOfHonorsCacheCaps hammers the refinement evaluator with every user
// against a cache far smaller than the user count. Under a plain oracle the
// evaluator keeps no per-user state at all; under hub labels the cap must
// hold throughout, rejected entries must be recomputed with identical
// values, and entries must stay label-sized.
func TestMOfHonorsCacheCaps(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{})
	ball := make([]model.POIID, 0, 10)
	for o := 0; o < 10; o++ {
		ball = append(ball, model.POIID(o))
	}

	// Ground truth from per-pair searches (no oracle attached yet).
	want := make([]float64, len(ds.Users))
	for u := range ds.Users {
		want[u] = ballTruth(ds, socialnet.UserID(u), ball)
	}

	const cap = 8
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	cache := newVertexDistCacheWith(cap, 1<<26)
	mOf := e.makeMOf(cache, ball, nil, nil, nil, ar)
	for u := range ds.Users {
		if got := mOf(socialnet.UserID(u)); !sameDist(got, want[u]) {
			t.Fatalf("plain mode: mOf(%d) = %v, want %v", u, got, want[u])
		}
	}
	if n := cache.entries(); n != 0 {
		t.Fatalf("plain mode: evaluator cached %d per-user entries, want none", n)
	}

	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	lcache := newVertexDistCacheWith(cap, 1<<26)
	mOfL := e.makeMOf(lcache, ball, nil, nil, nil, ar)
	for u := range ds.Users {
		if got := mOfL(socialnet.UserID(u)); !sameDist(got, want[u]) {
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

// TestMOfOneDistancePath pins the bounded source-to-ball evaluator on every
// backend that uses it — plain Dijkstra, CH, and the road delta overlay
// (hub labels plus one AddRoadEdge, which exposes no labels): unbounded it
// equals the per-pair DistAttach maximum; under a keeper a cost exactly at
// the bound is kept and the same cost one ulp beyond it is +Inf; and a
// tripped checkpoint prices every user +Inf.
func TestMOfOneDistancePath(t *testing.T) {
	backends := []struct {
		name  string
		setup func(ds *model.Dataset) *Engine
	}{
		{"dijkstra", func(ds *model.Dataset) *Engine { return buildEngine(t, ds, Options{}) }},
		{"ch", func(ds *model.Dataset) *Engine {
			ds.Road.SetDistanceOracle(ch.Build(ds.Road))
			return buildEngine(t, ds, Options{})
		}},
		{"overlay", func(ds *model.Dataset) *Engine {
			ds.Road.SetDistanceOracle(hl.Build(ds.Road))
			e := buildEngine(t, ds, Options{})
			if _, err := e.AddRoadEdge(0, roadnet.VertexID(ds.Road.NumVertices()-1)); err != nil {
				t.Fatal(err)
			}
			if !ds.Road.OverlayStats().Active || ds.Road.HasLabels() {
				t.Fatal("AddRoadEdge did not leave a label-less overlay attached")
			}
			return e
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			ds := smallDataset(t, 5)
			e := b.setup(ds)
			ar := e.acquireArena()
			defer e.releaseArena(ar)
			ball := []model.POIID{0, 3, 7, 11, 19}
			cache := newVertexDistCache()
			unbounded := e.makeMOf(cache, ball, nil, nil, nil, ar)
			tripped := roadnet.NewCheckpoint(nil, nil, 1)
			tripped.Spend(2)
			for u := range ds.Users {
				uid := socialnet.UserID(u)
				m := unbounded(uid)
				if want := ballTruth(ds, uid, ball); !sameDist(m, want) {
					t.Fatalf("user %d: M = %v, want per-pair max %v", u, m, want)
				}
				if math.IsInf(m, 1) {
					continue
				}
				at := newSharedKeeper(1)
				at.add(Result{Found: true, MaxDist: m})
				if got := e.makeMOf(cache, ball, nil, at, nil, ar)(uid); got != m {
					t.Fatalf("user %d: bound = M = %v evaluated to %v, want the tie kept", u, m, got)
				}
				below := newSharedKeeper(1)
				below.add(Result{Found: true, MaxDist: math.Nextafter(m, 0)})
				if got := e.makeMOf(cache, ball, nil, below, nil, ar)(uid); !math.IsInf(got, 1) {
					t.Fatalf("user %d: M = %v one ulp beyond the bound evaluated to %v, want +Inf", u, m, got)
				}
				if got := e.makeMOf(cache, ball, nil, nil, tripped, ar)(uid); !math.IsInf(got, 1) {
					t.Fatalf("user %d: tripped checkpoint evaluated to %v, want +Inf", u, got)
				}
			}
			if n := cache.entries(); n != 0 {
				t.Fatalf("evaluator cached %d per-user entries, want none", n)
			}
		})
	}
}
