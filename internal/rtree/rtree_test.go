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

// pointItems returns pts as items, item i with ID i.
func pointItems(pts []geo.Point) []Item {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: geo.RectFromPoint(p), ID: int32(i)}
	}
	return items
}

// load bulk-loads a tree over items.
func load(opts Options, items []Item) *Tree {
	tr := New(opts)
	tr.BulkLoad(items)
	return tr
}

func buildTree(t testing.TB, pts []geo.Point, opts Options) *Tree {
	t.Helper()
	tr := load(opts, pointItems(pts))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after build: %v", err)
	}
	return tr
}

// searchAll collects every item Search reports for q.
func searchAll(tr *Tree, q geo.Rect) []Item {
	var out []Item
	tr.Search(q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New(Options{})
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := searchAll(tr, geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}); len(got) != 0 {
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
		for _, it := range searchAll(tr, q) {
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

func TestBulkLoad(t *testing.T) {
	pts := randPoints(2000, 13)
	tr := buildTree(t, pts, Options{MaxEntries: 16})
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	q := geo.Rect{Min: geo.Pt(100, 100), Max: geo.Pt(300, 300)}
	want := 0
	for _, p := range pts {
		if q.ContainsPoint(p) {
			want++
		}
	}
	if got := len(searchAll(tr, q)); got != want {
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

func TestDuplicatePoints(t *testing.T) {
	p := geo.Pt(5, 5)
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = p
	}
	tr := load(Options{MaxEntries: 4}, pointItems(pts))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants with duplicates: %v", err)
	}
	got := searchAll(tr, geo.RectFromPoint(p))
	if len(got) != 50 {
		t.Errorf("found %d duplicates, want 50", len(got))
	}
}

// Property: after loading any point set, every point is found by a point
// query and invariants hold.
func TestInsertSearchProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		pts := randPoints(n, seed)
		tr := load(Options{MaxEntries: 5}, pointItems(pts))
		if tr.CheckInvariants() != nil {
			return false
		}
		for i, p := range pts {
			ok := false
			for _, it := range searchAll(tr, geo.RectFromPoint(p)) {
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

func BenchmarkSearch(b *testing.B) {
	tr := buildTree(b, randPoints(10000, 100), Options{MaxEntries: 16})
	q := geo.Rect{Min: geo.Pt(400, 400), Max: geo.Pt(500, 500)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(q, func(Item) bool { return true })
	}
}

func BenchmarkNearest10(b *testing.B) {
	tr := buildTree(b, randPoints(10000, 101), Options{MaxEntries: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(geo.Pt(500, 500), 10)
	}
}
