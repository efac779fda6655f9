// Million-scale generation. gen.Synthetic's road builder runs an R-tree
// nearest-neighbour pass, a segment-crossing index, and point snapping —
// all worth it for paper-faithful 30K networks, all far too heavy at 1M
// vertices (the crossing maps alone would hold tens of millions of
// segments). Large swaps the road builder for a perturbed lattice whose
// geometry makes every spatial operation O(1): the cell containing a point
// identifies its road edge by arithmetic, so users and POIs stream onto
// the network with no spatial index at all. Everything above the road
// layer — districts, communities, interest homophily, the social graph —
// is shared with Synthetic, so datasets keep the structural properties the
// pruning lemmas need.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// Large generates a spatial-social network on a perturbed-lattice road
// network. Deterministic for a given Config.Seed — generation is one
// sequential pass over one rng, so the output is independent of
// GOMAXPROCS and host parallelism (pinned by TestLargeDeterministic).
// Intended for the scale1m benchmark tier; Synthetic remains the
// paper-faithful generator at evaluation scales.
func Large(cfg Config) (*model.Dataset, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.RoadVertices < 4 {
		return nil, fmt.Errorf("gen: lattice generator needs at least 4 road vertices, got %d", c.RoadVertices)
	}
	rng := rand.New(rand.NewSource(c.Seed))

	road, lat := genLatticeRoad(rng, c.RoadVertices)
	districts := newDistrictMap(rng, road.Bounds(), c)
	pois := genPOIs(rng, road, districts, c)

	comms := newCommunities(rng, road.Bounds(), c)
	social := genSocialNetwork(rng, comms, c)
	users := genLatticeUsers(rng, road, lat, comms, c)

	d := &model.Dataset{
		Name:      c.Name,
		Road:      road,
		Social:    social,
		Users:     users,
		POIs:      pois,
		NumTopics: c.Topics,
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated dataset invalid: %w", err)
	}
	return d, nil
}

// lattice records the grid geometry and the row-chain edge ids, which is
// all genLatticeUsers needs to snap a point onto the network in O(1).
type lattice struct {
	rows, cols int
	cell       float64
	// rowEdge[i] is the edge from vertex i-1 to vertex i along its row, or
	// -1 in column 0 (no left neighbour).
	rowEdge []roadnet.EdgeID
}

// genLatticeRoad builds a connected road network on a jittered grid at
// unit vertex density (matching Synthetic's density, so radii mean the
// same thing across generators): every row is a chain of road segments,
// column 0 chains the rows together, and ~30% of the remaining vertical
// links exist — average degree lands in the 2.1–2.6 band of real road
// networks. Jitter stays within ±0.3 cells so the lattice arithmetic in
// genLatticeUsers still identifies the containing cell.
func genLatticeRoad(rng *rand.Rand, nv int) (*roadnet.Graph, *lattice) {
	cols := int(math.Ceil(math.Sqrt(float64(nv))))
	if cols < 2 {
		cols = 2
	}
	rows := (nv + cols - 1) / cols
	const cell = 1.0 // unit density
	g := roadnet.NewGraph(nv, nv+nv/3)
	lat := &lattice{rows: rows, cols: cols, cell: cell, rowEdge: make([]roadnet.EdgeID, nv)}
	for i := 0; i < nv; i++ {
		r, c := i/cols, i%cols
		g.AddVertex(geo.Pt(
			(float64(c)+0.5+0.6*(rng.Float64()-0.5))*cell,
			(float64(r)+0.5+0.6*(rng.Float64()-0.5))*cell,
		))
		lat.rowEdge[i] = -1
		if c > 0 {
			lat.rowEdge[i], _ = g.AddEdge(roadnet.VertexID(i-1), roadnet.VertexID(i))
		}
	}
	for r := 1; r < rows; r++ {
		g.AddEdge(roadnet.VertexID((r-1)*cols), roadnet.VertexID(r*cols))
	}
	for i := cols; i < nv; i++ {
		if i%cols == 0 {
			continue // column 0 is already chained
		}
		if rng.Float64() < 0.3 {
			g.AddEdge(roadnet.VertexID(i-cols), roadnet.VertexID(i))
		}
	}
	return g, lat
}

// edgeNear maps a point to a road edge in O(1) through the lattice: the
// containing cell names a vertex, and that vertex's row-chain edge (or its
// right neighbour's, in column 0) is a road within one cell of the point.
func (lat *lattice) edgeNear(p geo.Point, nv int) roadnet.EdgeID {
	c := int(p.X / lat.cell)
	if c < 0 {
		c = 0
	}
	if c >= lat.cols {
		c = lat.cols - 1
	}
	r := int(p.Y / lat.cell)
	if r < 0 {
		r = 0
	}
	if r >= lat.rows {
		r = lat.rows - 1
	}
	i := r*lat.cols + c
	if i >= nv {
		i = nv - 1
	}
	if e := lat.rowEdge[i]; e >= 0 {
		return e
	}
	if i+1 < nv && lat.rowEdge[i+1] >= 0 {
		return lat.rowEdge[i+1]
	}
	return 0
}

// genLatticeUsers is genUsers with the O(V)-index SnapPoint replaced by
// the lattice's O(1) edge lookup: homes cluster around community centers
// exactly as in Synthetic, then land on the row edge of their cell.
func genLatticeUsers(rng *rand.Rand, road *roadnet.Graph, lat *lattice, cm *communities, c Config) []model.User {
	b := road.Bounds()
	sigma := c.GeoCohesion * math.Max(b.Width(), b.Height())
	users := make([]model.User, c.SocialUsers)
	z := newZipfInt(rng, 9)
	inProfile := make([]bool, c.Topics)
	for i := range users {
		ci := cm.member[i]
		var p geo.Point
		if sigma > 0 {
			p = geo.Pt(
				clamp(cm.centers[ci].X+rng.NormFloat64()*sigma, b.Min.X, b.Max.X),
				clamp(cm.centers[ci].Y+rng.NormFloat64()*sigma, b.Min.Y, b.Max.Y),
			)
		} else {
			p = geo.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
		}
		at := road.AttachAt(lat.edgeNear(p, road.NumVertices()), rng.Float64())
		w := drawInterestVector(rng, c, cm.profiles[ci], inProfile, z)
		users[i] = model.User{
			ID:        socialnet.UserID(i),
			At:        at,
			Loc:       road.Location(at),
			Interests: w,
		}
	}
	return users
}
