package rtree

import (
	"math/rand"
	"testing"

	"gpssn/internal/geo"
)

// Rectangle (non-point) items: road edges and MBRs are stored as boxes in
// several places; the tree must handle extended geometry identically.
func randRects(n int, seed int64) []geo.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geo.Rect, n)
	for i := range out {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		out[i] = geo.Rect{
			Min: geo.Pt(x, y),
			Max: geo.Pt(x+rng.Float64()*20, y+rng.Float64()*20),
		}
	}
	return out
}

func TestRectItemsSearch(t *testing.T) {
	rects := randRects(500, 51)
	items := make([]Item, len(rects))
	for i, r := range rects {
		items[i] = Item{Rect: r, ID: int32(i)}
	}
	tr := load(Options{MaxEntries: 8}, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		q := geo.Rect{Min: geo.Pt(x, y), Max: geo.Pt(x+100, y+100)}
		want := map[int32]bool{}
		for i, r := range rects {
			if q.Intersects(r) {
				want[int32(i)] = true
			}
		}
		got := map[int32]bool{}
		for _, it := range searchAll(tr, q) {
			got[it.ID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hits, want %d", trial, len(got), len(want))
		}
	}
}

func TestBulkLoadRects(t *testing.T) {
	rects := randRects(1000, 54)
	items := make([]Item, len(rects))
	for i, r := range rects {
		items[i] = Item{Rect: r, ID: int32(i)}
	}
	tr := New(Options{MaxEntries: 16})
	tr.BulkLoad(items)
	q := geo.Rect{Min: geo.Pt(250, 250), Max: geo.Pt(500, 500)}
	want := 0
	for _, r := range rects {
		if q.Intersects(r) {
			want++
		}
	}
	if got := len(searchAll(tr, q)); got != want {
		t.Errorf("bulk rect search = %d, want %d", got, want)
	}
}

// Mixed degenerate and extended rectangles in one tree.
func TestMixedPointAndRectItems(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 300
	boxes := make([]geo.Rect, n)
	items := make([]Item, n)
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		if i%2 == 0 {
			boxes[i] = geo.RectFromPoint(p)
		} else {
			boxes[i] = geo.Rect{Min: p, Max: geo.Pt(p.X+5, p.Y+5)}
		}
		items[i] = Item{Rect: boxes[i], ID: int32(i)}
	}
	tr := load(Options{MaxEntries: 5}, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	q := geo.Rect{Min: geo.Pt(20, 20), Max: geo.Pt(60, 60)}
	want := 0
	for _, b := range boxes {
		if q.Intersects(b) {
			want++
		}
	}
	if got := len(searchAll(tr, q)); got != want {
		t.Errorf("mixed search = %d, want %d", got, want)
	}
}
