package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// clampF maps an arbitrary float64 into a well-behaved coordinate range so
// quick.Check inputs do not overflow to Inf in intermediate arithmetic.
func clampF(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0, 0), Pt(0, 7), 7},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); !almostEq(got, tc.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := tc.p.Dist2(tc.q); !almostEq(got, tc.want*tc.want) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
		}
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		ax, ay, bx, by = clampF(ax), clampF(ay), clampF(bx), clampF(by)
		a, b := Pt(ax, ay), Pt(bx, by)
		return almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointArith(t *testing.T) {
	p := Pt(1, 2)
	if got := p.Add(Pt(3, 4)); got != Pt(4, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Pt(3, 4)); got != Pt(-2, -2) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Lerp(Pt(3, 4), 0.5); got != Pt(2, 3) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %v", e.Area())
	}
	r := Rect{Pt(0, 0), Pt(1, 1)}
	if got := e.Union(r); got != r {
		t.Errorf("empty union r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r union empty = %v, want %v", got, r)
	}
	if e.Intersects(r) {
		t.Error("empty should not intersect anything")
	}
}

func TestRectOf(t *testing.T) {
	r := RectOf(Pt(1, 5), Pt(3, 2), Pt(-1, 4))
	want := Rect{Pt(-1, 2), Pt(3, 5)}
	if r != want {
		t.Errorf("RectOf = %v, want %v", r, want)
	}
	if RectOf().IsEmpty() != true {
		t.Error("RectOf() should be empty")
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(4, 2)}
	if got := r.Area(); !almostEq(got, 8) {
		t.Errorf("Area = %v", got)
	}
	if got := r.Center(); got != Pt(2, 1) {
		t.Errorf("Center = %v", got)
	}
	if !r.ContainsPoint(Pt(4, 2)) || !r.ContainsPoint(Pt(0, 0)) {
		t.Error("boundary points must be contained")
	}
	if r.ContainsPoint(Pt(4.01, 2)) {
		t.Error("outside point contained")
	}
}

func TestRectContainsRect(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(10, 10)}
	if !r.ContainsRect(Rect{Pt(1, 1), Pt(9, 9)}) {
		t.Error("inner rect should be contained")
	}
	if r.ContainsRect(Rect{Pt(1, 1), Pt(11, 9)}) {
		t.Error("overflowing rect should not be contained")
	}
	if !r.ContainsRect(EmptyRect()) {
		t.Error("every rect contains the empty rect")
	}
}

func TestRectMinMaxDistPoint(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(2, 2)}
	tests := []struct {
		p   Point
		min float64
	}{
		{Pt(1, 1), 0},
		{Pt(3, 1), 1},
		{Pt(5, 6), 5},
		{Pt(-1, -1), math.Sqrt2},
	}
	for _, tc := range tests {
		if got := r.MinDistPoint(tc.p); !almostEq(got, tc.min) {
			t.Errorf("MinDistPoint(%v) = %v, want %v", tc.p, got, tc.min)
		}
	}
}

// Property: union contains both inputs and its area is at least each input's.
func TestRectUnionProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		ax, ay, bx, by = clampF(ax), clampF(ay), clampF(bx), clampF(by)
		cx, cy, dx, dy = clampF(cx), clampF(cy), clampF(dx), clampF(dy)
		a := RectOf(Pt(ax, ay), Pt(bx, by))
		b := RectOf(Pt(cx, cy), Pt(dx, dy))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b) &&
			u.Area() >= a.Area()-1e-9 && u.Area() >= b.Area()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MinDistPoint <= Dist(corner) for every corner, and <=
// Dist(center).
func TestRectDistOrderingProperty(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		ax, ay, bx, by, px, py = clampF(ax), clampF(ay), clampF(bx), clampF(by), clampF(px), clampF(py)
		r := RectOf(Pt(ax, ay), Pt(bx, by))
		p := Pt(px, py)
		min := r.MinDistPoint(p)
		for _, q := range []Point{r.Center(), r.Min, r.Max, Pt(r.Min.X, r.Max.Y), Pt(r.Max.X, r.Min.Y)} {
			if min > q.Dist(p)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
