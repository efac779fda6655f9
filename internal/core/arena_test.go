package core

import (
	"runtime/debug"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// sameResults compares two top-k answer lists bit-for-bit: identical
// costs (exact float equality, not tolerance), anchors, groups and balls.
// This is the contract the arena layer must meet — it moves scratch
// memory, it never changes a computed value.
func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	compareResults(t, label, got, want, func(a, b float64) bool { return a == b })
}

// compareResults compares two top-k answer lists: found flags, anchors,
// groups and balls exactly, costs by sameCost.
func compareResults(t *testing.T, label string, got, want []Result, sameCost func(a, b float64) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Found != w.Found || g.Anchor != w.Anchor || !sameCost(g.MaxDist, w.MaxDist) {
			t.Fatalf("%s: result %d = {found %v anchor %d cost %v}, want {found %v anchor %d cost %v}",
				label, i, g.Found, g.Anchor, g.MaxDist, w.Found, w.Anchor, w.MaxDist)
		}
		if len(g.S) != len(w.S) || len(g.R) != len(w.R) {
			t.Fatalf("%s: result %d sizes |S|=%d |R|=%d, want %d/%d",
				label, i, len(g.S), len(g.R), len(w.S), len(w.R))
		}
		for j := range w.S {
			if g.S[j] != w.S[j] {
				t.Fatalf("%s: result %d S=%v, want %v", label, i, g.S, w.S)
			}
		}
		for j := range w.R {
			if g.R[j] != w.R[j] {
				t.Fatalf("%s: result %d R=%v, want %v", label, i, g.R, w.R)
			}
		}
	}
}

// TestArenaFoldTogglesBitIdentical is the arena's equality gate: P=1 and
// P=8 must return byte-identical top-k answers under each oracle family
// (plain Dijkstra, CH, HL), where workers recycle arenas in different
// orders. The reference is the sequential engine.
func TestArenaFoldTogglesBitIdentical(t *testing.T) {
	ds := smallDataset(t, 23)
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	queryUsers := []socialnet.UserID{2, 19, 44}

	oracles := []struct {
		name   string
		attach func()
	}{
		{"dijkstra", func() { ds.Road.SetDistanceOracle(nil) }},
		{"ch", func() { ds.Road.SetDistanceOracle(ch.Build(ds.Road)) }},
		{"hl", func() { ds.Road.SetDistanceOracle(hl.Build(ds.Road)) }},
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"p1", Options{Parallelism: 1}},
		{"p8", Options{Parallelism: 8}},
	}
	defer ds.Road.SetDistanceOracle(nil)
	for _, o := range oracles {
		o.attach()
		ref := buildEngine(t, ds, Options{Parallelism: 1})
		for _, uq := range queryUsers {
			want, _, err := ref.QueryTopK(uq, p, 2)
			if err != nil {
				t.Fatalf("%s ref uq %d: %v", o.name, uq, err)
			}
			for _, v := range variants {
				e := buildEngine(t, ds, v.opts)
				got, _, err := e.QueryTopK(uq, p, 2)
				if err != nil {
					t.Fatalf("%s/%s uq %d: %v", o.name, v.name, uq, err)
				}
				sameResults(t, o.name+"/"+v.name, got, want)
			}
		}
	}
}

// TestLabelEvalZeroAllocsWithArena pins the arena's core claim with the
// allocator's own counter: once warm, evaluating M(u) through the label
// kernel allocates nothing at all: every user's label is merged into the
// arena's scratch.
func TestLabelEvalZeroAllocsWithArena(t *testing.T) {
	if raceBuild() {
		t.Skip("the oracle's merge scratch comes from a sync.Pool, which -race makes lossy")
	}
	ds := smallDataset(t, 24)
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	e := buildEngine(t, ds, Options{})
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	ball := []model.POIID{0, 1, 2, 3, 4}
	mOf := e.makeMOf(ball, nil, nil, ar)
	users := []socialnet.UserID{1, 5, 9, 13, 17}
	for _, u := range users {
		mOf(u) // warm: the label scratch grows
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, u := range users {
			mOf(u)
		}
	})
	if allocs != 0 {
		t.Errorf("warm label evaluation allocates %.1f objects per run, want 0", allocs)
	}
}

// TestQueryAllocsDropWithArena pins the whole-query allocation count: a
// warm sequential query on this dataset allocates 150 objects (151 with
// the anchor stream's push closure for its two ways of keying an anchor,
// 165 with two page-simulator buffer pools per query charging every node
// read, 213 with earlier refinement and anchor-stream code, 218 with
// the in-traversal δ update's per-pivot bound slice and top-k threshold
// tracker, 224 with a per-query map of probed anchors, sort.Slice and an
// eagerly sorted anchor list as well, 535 when the group search built maps
// and sorted slices at every recursion step, 626 with a heap-allocated
// seed pair per computed label as well, 669 with a per-query label cache
// as well, 788 when anchorDists and every ball rebuilt and sorted their
// target labels, 1,048 when every anchor and evaluation also allocated its
// own scratch), and the ceiling of 150 + 10% fails the test if scratch
// stops coming from the arena or the label table stops being read.
func TestQueryAllocsDropWithArena(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's own allocations (and its lossy sync.Pool) make absolute counts meaningless")
	}
	ds := smallDataset(t, 25)
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}

	e := buildEngine(t, ds, Options{Parallelism: 1})
	if _, _, err := e.Query(19, p); err != nil { // warm arenas + pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := e.Query(19, p); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 165
	if allocs > ceiling {
		t.Errorf("query allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
	t.Logf("allocs per query: %.0f", allocs)
}

// raceBuild reports whether this test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestArenaByteAccounting checks the telemetry gauge against hand-computed
// buffer sizes, through growth, recycling, and the free-list drop path.
func TestArenaByteAccounting(t *testing.T) {
	ds := smallDataset(t, 26)
	e := buildEngine(t, ds, Options{})
	ar := e.acquireArena()
	ar.attachBuf(10)
	ar.floatBuf(10)
	ar.userBuf(4)
	ar.keywords(6)
	want := int64(10*attachSize + 10*8 + 4*userIDSize + 8)
	if got := e.ArenaBytes(); got != want {
		t.Fatalf("ArenaBytes = %d, want %d", got, want)
	}
	// Growth only: a smaller request keeps the larger buffer.
	ar.attachBuf(3)
	if got := e.ArenaBytes(); got != want {
		t.Fatalf("ArenaBytes after smaller request = %d, want %d", got, want)
	}
	// Releasing keeps the bytes (free list retains the arena)...
	e.releaseArena(ar)
	if got := e.ArenaBytes(); got != want {
		t.Fatalf("ArenaBytes after release = %d, want %d", got, want)
	}
	// ...and reacquiring hands the same arena back with buffers intact.
	ar2 := e.acquireArena()
	if ar2 != ar {
		t.Fatal("free list did not recycle the arena")
	}
	if got := e.ArenaBytes(); got != want {
		t.Fatalf("ArenaBytes after reacquire = %d, want %d", got, want)
	}

	// Overflow the free list: the dropped arena's bytes leave the gauge.
	extra := make([]*refineArena, 0, arenaMaxFree)
	for i := 0; i < arenaMaxFree; i++ {
		a := e.acquireArena()
		a.floatBuf(2)
		extra = append(extra, a)
	}
	total := e.ArenaBytes()
	for _, a := range extra {
		e.releaseArena(a)
	}
	e.releaseArena(ar2) // free list already full: ar2's bytes must be subtracted
	if got := e.ArenaBytes(); got != total-want {
		t.Fatalf("ArenaBytes after overflow drop = %d, want %d", got, total-want)
	}
}

// TestEngineMemoryStats checks the engine-level rollup: oracle bytes only
// when an oracle reports them, arena bytes after a query warmed the pool,
// the POI label table's bytes exactly while an engine holds one — built
// under hub labels, grown by AddPOI, released by a road mutation, absent
// under plain Dijkstra.
func TestEngineMemoryStats(t *testing.T) {
	ds := smallDataset(t, 27)
	e := buildEngine(t, ds, Options{})
	if ms := e.MemoryStats(); ms.OracleBytes != 0 || ms.POILabelBytes != 0 {
		t.Errorf("OracleBytes = %d, POILabelBytes = %d without an oracle, want 0", ms.OracleBytes, ms.POILabelBytes)
	}
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	if _, _, err := e.Query(2, Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 2}); err != nil {
		t.Fatal(err)
	}
	ms := e.MemoryStats()
	if ms.OracleBytes <= 0 {
		t.Errorf("OracleBytes = %d with hub labels attached, want > 0", ms.OracleBytes)
	}
	if ms.ArenaBytes <= 0 {
		t.Errorf("ArenaBytes = %d after a query, want > 0", ms.ArenaBytes)
	}
	if ms.POILabelBytes != 0 {
		t.Errorf("POILabelBytes = %d on an engine wired before its oracle, want 0", ms.POILabelBytes)
	}

	labelled := buildEngine(t, ds, Options{})
	built := labelled.MemoryStats().POILabelBytes
	if built <= 0 {
		t.Fatalf("POILabelBytes = %d under hub labels, want > 0", built)
	}
	poi := ds.POIs[0]
	poi.ID = model.POIID(len(ds.POIs))
	if err := labelled.AddPOI(poi); err != nil {
		t.Fatal(err)
	}
	if tab := labelled.POILabels(); tab.NumRows() != len(ds.POIs) || tab.CheckInvariants() != nil {
		t.Fatalf("table has %d rows for %d POIs (invariants: %v)", tab.NumRows(), len(ds.POIs), tab.CheckInvariants())
	}
	grown := labelled.MemoryStats().POILabelBytes
	if grown <= built {
		t.Errorf("POILabelBytes = %d after AddPOI, want > %d", grown, built)
	}
	if _, err := labelled.AddRoadEdge(0, roadnet.VertexID(ds.Road.NumVertices()-1)); err != nil {
		t.Fatal(err)
	}
	if got := labelled.MemoryStats().POILabelBytes; got != grown {
		t.Errorf("POILabelBytes = %d after AddRoadEdge, want %d (table kept for the base graph)", got, grown)
	}
	if ms.ArenaBytes != e.ArenaBytes() {
		t.Errorf("MemoryStats.ArenaBytes %d != ArenaBytes() %d", ms.ArenaBytes, e.ArenaBytes())
	}
}
