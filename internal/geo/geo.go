// Package geo provides the 2D geometric primitives used throughout the
// GP-SSN system: points, axis-aligned rectangles (minimum bounding
// rectangles), and the distance functions required by the R-tree and the
// pruning rules of the paper (Euclidean point and point/rect distances).
//
// All coordinates are float64 in an abstract planar coordinate system; the
// road-network generator decides the units (the paper's radius parameter r
// is expressed in the same units).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2D plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in hot loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle (an MBR). A Rect is valid when
// Min.X <= Max.X and Min.Y <= Max.Y. The zero Rect is the empty rectangle
// (see EmptyRect) only by convention; use EmptyRect to start accumulating
// bounds.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions with any rectangle to yield that rectangle.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// RectOf returns the MBR of a set of points. It returns EmptyRect when
// called with no points.
func RectOf(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect { return Rect{Min: p, Max: p} }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool {
	return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y
}

// Width returns the extent of r along the X axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along the Y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r. Empty rectangles have zero area.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.ContainsPoint(s.Min) && r.ContainsPoint(s.Max)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return r.Union(RectFromPoint(p))
}

// MinDistPoint returns the minimum Euclidean distance from p to any point
// of r (zero when p is inside r). This is the classic MINDIST metric used
// for R-tree best-first search.
func (r Rect) MinDistPoint(p Point) float64 {
	return math.Sqrt(r.MinDist2Point(p))
}

// MinDist2Point returns the squared MINDIST from p to r.
func (r Rect) MinDist2Point(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return dx*dx + dy*dy
}

// axisDist returns the distance from coordinate v to the interval [lo, hi].
func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}
