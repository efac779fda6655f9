package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// clampS bounds quick.Check coordinates (see clampF in geo_test.go).
func clampS(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

func TestSegmentLengthAt(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(4, 0))
	if !almostEq(s.Length(), 4) {
		t.Errorf("Length = %v", s.Length())
	}
	if got := s.At(0.25); got != Pt(1, 0) {
		t.Errorf("At(0.25) = %v", got)
	}
	if got := s.At(-1); got != Pt(0, 0) {
		t.Errorf("At(-1) = %v, want clamp to A", got)
	}
	if got := s.At(2); got != Pt(4, 0) {
		t.Errorf("At(2) = %v, want clamp to B", got)
	}
}

func TestSegmentProject(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	tests := []struct {
		p Point
		t float64
	}{
		{Pt(5, 3), 0.5},
		{Pt(-2, 1), 0},
		{Pt(12, -1), 1},
		{Pt(0, 0), 0},
	}
	for _, tc := range tests {
		if got := s.Project(tc.p); !almostEq(got, tc.t) {
			t.Errorf("Project(%v) = %v, want %v", tc.p, got, tc.t)
		}
	}
	// Degenerate segment projects everything to t=0.
	d := Seg(Pt(1, 1), Pt(1, 1))
	if got := d.Project(Pt(5, 5)); got != 0 {
		t.Errorf("degenerate Project = %v", got)
	}
}

func TestSegmentDistPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	if got := s.DistPoint(Pt(5, 3)); !almostEq(got, 3) {
		t.Errorf("DistPoint mid = %v", got)
	}
	if got := s.DistPoint(Pt(13, 4)); !almostEq(got, 5) {
		t.Errorf("DistPoint past end = %v", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	tests := []struct {
		a, b Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(4, 4)), Seg(Pt(0, 4), Pt(4, 0)), true},  // X crossing
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 2), Pt(3, 3)), false}, // collinear disjoint
		{Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(1, 1), Pt(3, 3)), true},  // collinear overlap
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(1, 0), Pt(2, 5)), true},  // shared endpoint
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 1), Pt(1, 1)), false}, // parallel
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, -1), Pt(2, 1)), true}, // T crossing
		{Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(2, 1), Pt(2, 3)), false}, // above
	}
	for i, tc := range tests {
		if got := tc.a.Intersects(tc.b); got != tc.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, tc.want)
		}
		if got := tc.b.Intersects(tc.a); got != tc.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, tc.want)
		}
	}
}

func TestSegmentProperlyCrosses(t *testing.T) {
	a := Seg(Pt(0, 0), Pt(4, 4))
	b := Seg(Pt(0, 4), Pt(4, 0))
	if !a.ProperlyCrosses(b) {
		t.Error("X configuration should properly cross")
	}
	c := Seg(Pt(4, 4), Pt(8, 0))
	if a.ProperlyCrosses(c) {
		t.Error("shared endpoint must not count as a proper crossing")
	}
	d := Seg(Pt(2, 2), Pt(2, 10)) // touches interior of a at (2,2) endpoint of d
	if a.ProperlyCrosses(d) {
		t.Error("endpoint touching interior is not a proper crossing")
	}
}

// Property: distance from a point to a segment is never more than the
// distance to either endpoint.
func TestSegmentDistPointProperty(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		ax, ay, bx, by, px, py = clampS(ax), clampS(ay), clampS(bx), clampS(by), clampS(px), clampS(py)
		s := Seg(Pt(ax, ay), Pt(bx, by))
		p := Pt(px, py)
		d := s.DistPoint(p)
		return d <= p.Dist(s.A)+1e-9 && d <= p.Dist(s.B)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the projected point realizes DistPoint.
func TestSegmentProjectRealizesDist(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		ax, ay, bx, by, px, py = clampS(ax), clampS(ay), clampS(bx), clampS(by), clampS(px), clampS(py)
		s := Seg(Pt(ax, ay), Pt(bx, by))
		p := Pt(px, py)
		return almostEq(s.At(s.Project(p)).Dist(p), s.DistPoint(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentBounds(t *testing.T) {
	s := Seg(Pt(3, 1), Pt(0, 5))
	if got := s.Bounds(); got != (Rect{Pt(0, 1), Pt(3, 5)}) {
		t.Errorf("Bounds = %v", got)
	}
}
