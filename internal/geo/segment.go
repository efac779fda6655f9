package geo

import "math"

// Segment is a directed line segment from A to B. Road-network edges are
// segments; POIs live on them at a parametric offset.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// At returns the point a fraction t (clamped to [0,1]) along s from A.
func (s Segment) At(t float64) Point {
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.A.Lerp(s.B, t)
}

// Project returns the parameter t in [0,1] of the point on s closest to p.
func (s Segment) Project(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.X*d.X + d.Y*d.Y
	if l2 == 0 {
		return 0
	}
	v := p.Sub(s.A)
	t := (v.X*d.X + v.Y*d.Y) / l2
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// DistPoint returns the Euclidean distance from p to the nearest point of s.
func (s Segment) DistPoint(p Point) float64 {
	return s.At(s.Project(p)).Dist(p)
}

// Bounds returns the MBR of s.
func (s Segment) Bounds() Rect { return RectOf(s.A, s.B) }

// Intersects reports whether segments s and t share at least one point.
// It is used by the road-network generator to keep the graph planar
// (no edge crossings except at shared endpoints).
func (s Segment) Intersects(t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(t.A, t.B, s.A):
		return true
	case d2 == 0 && onSegment(t.A, t.B, s.B):
		return true
	case d3 == 0 && onSegment(s.A, s.B, t.A):
		return true
	case d4 == 0 && onSegment(s.A, s.B, t.B):
		return true
	}
	return false
}

// ProperlyCrosses reports whether s and t intersect at a point interior to
// both segments (sharing an endpoint does not count). The road-network
// generator rejects candidate edges that properly cross existing roads.
func (s Segment) ProperlyCrosses(t Segment) bool {
	if s.A == t.A || s.A == t.B || s.B == t.A || s.B == t.B {
		return false
	}
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

// orient returns the sign of the cross product (b-a) x (c-a): positive for
// counter-clockwise, negative for clockwise, zero for collinear.
func orient(a, b, c Point) float64 {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	// Snap tiny values to zero so nearly-collinear configurations are
	// treated consistently by the planarity test.
	if math.Abs(v) < 1e-12 {
		return 0
	}
	return v
}

// onSegment reports whether c (known collinear with a-b) lies within the
// bounding box of a-b.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}
