package roadnet

import (
	"math"

	"gpssn/internal/geo"
)

// edgeGrid is a uniform spatial hash over edge segments, used to snap
// arbitrary 2D points (user home locations, generated POI coordinates) onto
// the nearest road segment without scanning every edge.
type edgeGrid struct {
	bounds geo.Rect
	cell   float64
	cols   int
	rows   int
	cells  map[int][]EdgeID
}

func buildEdgeGrid(g *Graph) *edgeGrid {
	b := g.Bounds()
	if b.IsEmpty() || len(g.edges) == 0 {
		return &edgeGrid{bounds: b, cell: 1, cols: 1, rows: 1, cells: map[int][]EdgeID{}}
	}
	// A bounding box so large its width, height, or area overflows would
	// make the cell arithmetic below produce NaN column counts and send
	// eachCell walking an unbounded range; degrade to one cell holding
	// every edge (linear-scan snapping) instead.
	if !(b.Width() < math.MaxFloat64 && b.Height() < math.MaxFloat64 && b.Area() < math.MaxFloat64) {
		eg := &edgeGrid{bounds: b, cell: math.MaxFloat64, cols: 1, rows: 1,
			cells: map[int][]EdgeID{}}
		for id := range g.edges {
			eg.cells[0] = append(eg.cells[0], EdgeID(id))
		}
		return eg
	}
	// Aim for ~1 edge per cell on average.
	area := math.Max(b.Area(), 1e-9)
	cell := math.Sqrt(area / float64(len(g.edges)))
	// Avoid pathological tiny cells for clustered graphs.
	minCell := math.Max(b.Width(), b.Height()) / 4096
	if cell < minCell {
		cell = minCell
	}
	eg := &edgeGrid{
		bounds: b,
		cell:   cell,
		cols:   int(b.Width()/cell) + 1,
		rows:   int(b.Height()/cell) + 1,
		cells:  make(map[int][]EdgeID, len(g.edges)),
	}
	for id := range g.edges {
		seg := g.EdgeSegment(EdgeID(id))
		eg.eachCell(seg.Bounds(), func(c int) {
			eg.cells[c] = append(eg.cells[c], EdgeID(id))
		})
	}
	return eg
}

func (eg *edgeGrid) cellIndex(cx, cy int) int { return cy*eg.cols + cx }

func (eg *edgeGrid) cellOf(p geo.Point) (int, int) {
	cx := int((p.X - eg.bounds.Min.X) / eg.cell)
	cy := int((p.Y - eg.bounds.Min.Y) / eg.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= eg.cols {
		cx = eg.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= eg.rows {
		cy = eg.rows - 1
	}
	return cx, cy
}

func (eg *edgeGrid) eachCell(r geo.Rect, fn func(c int)) {
	x0, y0 := eg.cellOf(r.Min)
	x1, y1 := eg.cellOf(r.Max)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			fn(eg.cellIndex(cx, cy))
		}
	}
}

// nearest returns the edge nearest to p and the parametric offset of the
// closest point, searching outward ring by ring from p's cell.
func (eg *edgeGrid) nearest(g *Graph, p geo.Point) (EdgeID, float64, bool) {
	if len(g.edges) == 0 {
		return 0, 0, false
	}
	cx, cy := eg.cellOf(p)
	bestEdge, bestT := EdgeID(-1), 0.0
	bestDist := math.Inf(1)
	maxRing := eg.cols
	if eg.rows > maxRing {
		maxRing = eg.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once we have a candidate, stop when the next ring cannot improve.
		if bestEdge >= 0 && float64(ring-1)*eg.cell > bestDist {
			break
		}
		eg.eachRingCell(cx, cy, ring, func(c int) {
			for _, id := range eg.cells[c] {
				seg := g.EdgeSegment(id)
				t := seg.Project(p)
				d := seg.At(t).Dist(p)
				if d < bestDist {
					bestDist, bestEdge, bestT = d, id, t
				}
			}
		})
	}
	if bestEdge < 0 {
		return 0, 0, false
	}
	return bestEdge, bestT, true
}

// eachRingCell visits the cells at Chebyshev distance exactly ring from
// (cx, cy), clipped to the grid.
func (eg *edgeGrid) eachRingCell(cx, cy, ring int, fn func(c int)) {
	if ring == 0 {
		fn(eg.cellIndex(cx, cy))
		return
	}
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := x0; x <= x1; x++ {
		if x < 0 || x >= eg.cols {
			continue
		}
		if y0 >= 0 {
			fn(eg.cellIndex(x, y0))
		}
		if y1 < eg.rows && y1 != y0 {
			fn(eg.cellIndex(x, y1))
		}
	}
	for y := y0 + 1; y <= y1-1; y++ {
		if y < 0 || y >= eg.rows {
			continue
		}
		if x0 >= 0 {
			fn(eg.cellIndex(x0, y))
		}
		if x1 < eg.cols && x1 != x0 {
			fn(eg.cellIndex(x1, y))
		}
	}
}

// gridInsertEdge registers a freshly appended edge with the snap grid so
// mutations do not force the next SnapPoint into an O(V+E) rebuild. A
// nil grid stays nil (lazy build covers it); the 1×1 overflow grid keeps
// every edge in its single cell; an in-bounds segment is appended to
// each covered cell exactly as buildEdgeGrid would have, preserving the
// ring-search termination invariant (every edge is registered in every
// cell its bounding box touches). A segment escaping the built extent
// falls back to dropping the grid — the rebuild re-derives the bounds.
func (g *Graph) gridInsertEdge(id EdgeID) {
	eg := g.grid
	if eg == nil {
		return
	}
	if eg.cell == math.MaxFloat64 {
		eg.cells[0] = append(eg.cells[0], id)
		return
	}
	seg := g.EdgeSegment(id)
	if !eg.bounds.ContainsRect(seg.Bounds()) {
		g.grid = nil
		return
	}
	eg.eachCell(seg.Bounds(), func(c int) {
		eg.cells[c] = append(eg.cells[c], id)
	})
}

// SnapPoint returns the attachment on the road segment nearest to p. The
// second return value is false only for a graph with no edges.
func (g *Graph) SnapPoint(p geo.Point) (Attach, bool) {
	if g.grid == nil {
		g.grid = buildEdgeGrid(g)
		g.gridBuilds++
	}
	id, t, ok := g.grid.nearest(g, p)
	if !ok {
		return Attach{}, false
	}
	return Attach{Edge: id, T: t}, true
}
