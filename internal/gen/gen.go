// Package gen generates the spatial-social networks of the paper's
// evaluation (Section 6.1): the synthetic UNI and ZIPF datasets, and
// "real-like" stand-ins for the Brightkite+California and Gowalla+Colorado
// datasets that match the published statistics of Table 2 (the real
// check-in dumps are not available offline; see DESIGN.md for the
// substitution argument).
//
// Two structural properties of real location-based social networks are
// modelled explicitly because the paper's pruning-power results depend on
// them: interest homophily (friends cluster into communities with shared
// interest profiles — without it the interest-MBR index pruning of Lemma 8
// cannot fire) and spatial keyword districts (venues of similar type
// cluster geographically — without it every ball's keyword union saturates
// the vocabulary and the matching-score pruning of Lemmas 1/6 cannot
// fire).
//
// All generation is deterministic for a given Config.Seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/rtree"
	"gpssn/internal/socialnet"
)

// Distribution selects how degrees, POI counts per edge, keywords, and
// interest probabilities are drawn (the paper's Uniform vs Zipf datasets).
type Distribution int

const (
	// Uniform draws values uniformly from their domain.
	Uniform Distribution = iota
	// Zipf draws values with a Zipf skew (exponent ~1.5).
	Zipf
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	if d == Zipf {
		return "zipf"
	}
	return "uniform"
}

// Config parameterizes synthetic dataset generation. Zero values are
// replaced by the paper's defaults (Table 3 bold values).
type Config struct {
	Name string
	Seed int64
	// RoadVertices is |V(G_r)| (default 30000).
	RoadVertices int
	// SocialUsers is |V(G_s)| (default 30000).
	SocialUsers int
	// POIs is n, the number of POI objects (default 10000).
	POIs int
	// Topics is d, the interest/keyword vocabulary size (default 32).
	Topics int
	// Dist selects Uniform or Zipf generation.
	Dist Distribution
	// MaxSocialDegree bounds the per-user degree draw (default 10, the
	// paper's range [1,10]).
	MaxSocialDegree int
	// MaxPOIsPerEdge bounds POIs placed per selected edge (default 5, the
	// paper's range [0,5]).
	MaxPOIsPerEdge int
	// MaxKeywordsPerPOI bounds keywords per POI (default 4; at least 1 is
	// always assigned so every POI is matchable).
	MaxKeywordsPerPOI int
	// CommunitySize is the target interest-community size (default 150).
	CommunitySize int
	// IntraProb is the probability a friendship edge stays inside the
	// community (default 0.9).
	IntraProb float64
	// ProfileTopics is how many vocabulary topics a community or venue
	// district is about (default 4).
	ProfileTopics int
	// DistrictSide is the side length of the square venue districts in
	// road-network units. Zero (the default) picks min(32, mapSide/5)
	// clamped to at least 10, so a query ball usually sees one district's
	// vocabulary while small maps still contain several districts.
	DistrictSide float64
	// GeoCohesion is the standard deviation of community member homes
	// around their community's center, as a fraction of the map side
	// (default 0.05). Zero disables cohesion (uniform homes).
	GeoCohesion float64
}

func (c Config) withDefaults() Config {
	if c.RoadVertices == 0 {
		c.RoadVertices = 30000
	}
	if c.SocialUsers == 0 {
		c.SocialUsers = 30000
	}
	if c.POIs == 0 {
		c.POIs = 10000
	}
	if c.Topics == 0 {
		c.Topics = 32
	}
	if c.MaxSocialDegree == 0 {
		c.MaxSocialDegree = 10
	}
	if c.MaxPOIsPerEdge == 0 {
		c.MaxPOIsPerEdge = 5
	}
	if c.MaxKeywordsPerPOI == 0 {
		c.MaxKeywordsPerPOI = 4
	}
	if c.CommunitySize == 0 {
		c.CommunitySize = 150
	}
	if c.IntraProb == 0 {
		c.IntraProb = 0.9
	}
	if c.ProfileTopics == 0 {
		c.ProfileTopics = 4
		if c.ProfileTopics > c.Topics {
			c.ProfileTopics = c.Topics
		}
	}
	// DistrictSide == 0 means auto: chosen from the map size in
	// newDistrictMap so small test maps still have several districts.
	if c.GeoCohesion == 0 {
		c.GeoCohesion = 0.05
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s-v%d-u%d-n%d", c.Dist, c.RoadVertices, c.SocialUsers, c.POIs)
	}
	return c
}

func (c Config) validate() error {
	if c.RoadVertices < 2 {
		return fmt.Errorf("gen: need at least 2 road vertices, got %d", c.RoadVertices)
	}
	if c.SocialUsers < 1 {
		return fmt.Errorf("gen: need at least 1 user, got %d", c.SocialUsers)
	}
	if c.POIs < 1 {
		return fmt.Errorf("gen: need at least 1 POI, got %d", c.POIs)
	}
	if c.Topics < 1 {
		return fmt.Errorf("gen: need at least 1 topic, got %d", c.Topics)
	}
	return nil
}

// Synthetic generates a synthetic spatial-social network per Section 6.1.
func Synthetic(cfg Config) (*model.Dataset, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))

	road := genRoadNetwork(rng, c.RoadVertices)
	districts := newDistrictMap(rng, road.Bounds(), c)
	pois := genPOIs(rng, road, districts, c)

	comms := newCommunities(rng, road.Bounds(), c)
	social := genSocialNetwork(rng, comms, c)
	users := genUsers(rng, road, comms, c)

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

// genRoadNetwork builds a connected, planar-ish road network: random
// intersection points in a square with unit vertex density, edges to
// nearest neighbours that do not properly cross existing roads, plus
// connectivity patch-up edges. Average degree lands near the 2.1-2.5 of
// real road networks.
func genRoadNetwork(rng *rand.Rand, nv int) *roadnet.Graph {
	side := math.Sqrt(float64(nv)) // unit density: 1 vertex per unit area
	g := roadnet.NewGraph(nv, nv*3)
	pts := make([]geo.Point, nv)
	items := make([]rtree.Item, nv)
	for i := 0; i < nv; i++ {
		pts[i] = geo.Pt(rng.Float64()*side, rng.Float64()*side)
		g.AddVertex(pts[i])
		items[i] = rtree.Item{Rect: geo.RectFromPoint(pts[i]), ID: int32(i)}
	}
	tree := rtree.New(rtree.Options{MaxEntries: 16})
	tree.BulkLoad(items)

	// Candidate edges: each vertex to its 3 nearest neighbours, proposed in
	// increasing length order so short local roads win.
	type cand struct {
		u, v roadnet.VertexID
		w    float64
	}
	seen := make(map[[2]int32]bool, nv*3)
	var cands []cand
	for i := 0; i < nv; i++ {
		for _, nb := range tree.Nearest(pts[i], 4) { // self + 3 neighbours
			j := nb.Item.ID
			if int(j) == i {
				continue
			}
			a, b := int32(i), j
			if a > b {
				a, b = b, a
			}
			key := [2]int32{a, b}
			if seen[key] {
				continue
			}
			seen[key] = true
			cands = append(cands, cand{roadnet.VertexID(a), roadnet.VertexID(b), nb.Dist})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].w < cands[j].w })

	crossing := newCrossingIndex(side)
	for _, c := range cands {
		seg := geo.Seg(pts[c.u], pts[c.v])
		if crossing.crosses(seg) {
			continue
		}
		g.AddEdge(c.u, c.v)
		crossing.add(seg)
	}

	// Patch connectivity: link each secondary component to the main one via
	// the closest vertex pair found through the R-tree. These few edges may
	// cross existing roads (real networks have overpasses).
	labels, ncomp := g.ConnectedComponents()
	for ncomp > 1 {
		joined := false
		for i := 0; i < nv && !joined; i++ {
			if labels[i] != labels[0] {
				for _, nb := range tree.Nearest(pts[i], 16) {
					j := nb.Item.ID
					if labels[j] != labels[i] {
						g.AddEdge(roadnet.VertexID(i), roadnet.VertexID(j))
						joined = true
						break
					}
				}
				if !joined {
					g.AddEdge(roadnet.VertexID(i), 0)
					joined = true
				}
			}
		}
		labels, ncomp = g.ConnectedComponents()
	}
	return g
}

// crossingIndex is a coarse grid over segments for proper-crossing tests
// during road generation.
type crossingIndex struct {
	cell  float64
	cols  int
	cells map[int][]geo.Segment
}

func newCrossingIndex(side float64) *crossingIndex {
	cell := math.Max(side/256, 1e-9)
	return &crossingIndex{cell: cell, cols: int(side/cell) + 2, cells: map[int][]geo.Segment{}}
}

func (ci *crossingIndex) cellsOf(s geo.Segment) []int {
	b := s.Bounds()
	x0, y0 := int(b.Min.X/ci.cell), int(b.Min.Y/ci.cell)
	x1, y1 := int(b.Max.X/ci.cell), int(b.Max.Y/ci.cell)
	var out []int
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			out = append(out, y*ci.cols+x)
		}
	}
	return out
}

func (ci *crossingIndex) add(s geo.Segment) {
	for _, c := range ci.cellsOf(s) {
		ci.cells[c] = append(ci.cells[c], s)
	}
}

func (ci *crossingIndex) crosses(s geo.Segment) bool {
	for _, c := range ci.cellsOf(s) {
		for _, t := range ci.cells[c] {
			if s.ProperlyCrosses(t) {
				return true
			}
		}
	}
	return false
}

// districtMap assigns a topical profile to each square venue district of
// the map: POIs draw their keywords mostly from their district's profile,
// giving the spatial keyword clustering real cities exhibit.
type districtMap struct {
	bounds   geo.Rect
	side     float64
	cols     int
	profiles [][]int // district cell -> profile topics
	topics   int
}

func newDistrictMap(rng *rand.Rand, bounds geo.Rect, c Config) *districtMap {
	side := c.DistrictSide
	if side == 0 {
		side = math.Max(bounds.Width(), bounds.Height()) / 5
		if side > 32 {
			side = 32
		}
		if side < 10 {
			side = 10
		}
	}
	cols := int(bounds.Width()/side) + 1
	rows := int(bounds.Height()/side) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	dm := &districtMap{bounds: bounds, side: side, cols: cols, topics: c.Topics}
	dm.profiles = make([][]int, cols*rows)
	for i := range dm.profiles {
		dm.profiles[i] = randomProfile(rng, c.Topics, c.ProfileTopics)
	}
	return dm
}

// randomProfile draws k distinct topics.
func randomProfile(rng *rand.Rand, topics, k int) []int {
	if k > topics {
		k = topics
	}
	perm := rng.Perm(topics)[:k]
	sort.Ints(perm)
	return perm
}

// cellOf returns the district cell index containing p.
func (dm *districtMap) cellOf(p geo.Point) int {
	cx := int((p.X - dm.bounds.Min.X) / dm.side)
	cy := int((p.Y - dm.bounds.Min.Y) / dm.side)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	idx := cy*dm.cols + cx
	if idx < 0 || idx >= len(dm.profiles) {
		idx = 0
	}
	return idx
}

func (dm *districtMap) profileAt(p geo.Point) []int {
	return dm.profiles[dm.cellOf(p)]
}

// genPOIs places n POIs: random edges are selected and each receives
// w ∈ [0, MaxPOIsPerEdge] POIs (Uniform or Zipf), until n are placed. Each
// POI draws 1..MaxKeywordsPerPOI keywords, mostly from its district's
// profile (85%) with occasional off-profile venues.
func genPOIs(rng *rand.Rand, road *roadnet.Graph, dm *districtMap, c Config) []model.POI {
	pois := make([]model.POI, 0, c.POIs)
	zipfCount := newZipfInt(rng, c.MaxPOIsPerEdge)
	zipfNKw := newZipfInt(rng, c.MaxKeywordsPerPOI-1)
	for len(pois) < c.POIs {
		e := roadnet.EdgeID(rng.Intn(road.NumEdges()))
		var w int
		if c.Dist == Zipf {
			w = zipfCount.draw()
		} else {
			w = rng.Intn(c.MaxPOIsPerEdge + 1)
		}
		for k := 0; k < w && len(pois) < c.POIs; k++ {
			at := road.AttachAt(e, rng.Float64())
			loc := road.Location(at)
			nk := 1
			if c.MaxKeywordsPerPOI > 1 {
				if c.Dist == Zipf {
					nk = 1 + zipfNKw.draw()
				} else {
					nk = 1 + rng.Intn(c.MaxKeywordsPerPOI)
				}
			}
			kws := drawDistrictKeywords(rng, dm.profileAt(loc), c, nk)
			pois = append(pois, model.POI{
				ID:       model.POIID(len(pois)),
				At:       at,
				Loc:      loc,
				Keywords: kws,
			})
		}
	}
	return pois
}

// drawDistrictKeywords draws nk distinct keywords, preferring the district
// profile.
func drawDistrictKeywords(rng *rand.Rand, profile []int, c Config, nk int) []int {
	if nk > c.Topics {
		nk = c.Topics
	}
	seen := map[int]bool{}
	var kws []int
	for len(kws) < nk {
		var t int
		if rng.Float64() < 0.98 && len(profile) > 0 {
			t = profile[rng.Intn(len(profile))]
		} else {
			t = rng.Intn(c.Topics)
		}
		if !seen[t] {
			seen[t] = true
			kws = append(kws, t)
		}
	}
	sort.Ints(kws)
	return kws
}

// communities carries the interest-homophily structure: each community has
// a topical profile and a geographic center.
type communities struct {
	member   []int       // user -> community
	profiles [][]int     // community -> profile topics
	centers  []geo.Point // community -> home center
	sizes    []int
}

func newCommunities(rng *rand.Rand, bounds geo.Rect, c Config) *communities {
	n := c.SocialUsers
	numComm := n / c.CommunitySize
	if numComm < 2 {
		numComm = 2
	}
	cm := &communities{
		member:   make([]int, n),
		profiles: make([][]int, numComm),
		centers:  make([]geo.Point, numComm),
		sizes:    make([]int, numComm),
	}
	for i := range cm.profiles {
		cm.profiles[i] = randomProfile(rng, c.Topics, c.ProfileTopics)
		cm.centers[i] = geo.Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height(),
		)
	}
	for u := 0; u < n; u++ {
		cm.member[u] = rng.Intn(numComm)
		cm.sizes[cm.member[u]]++
	}
	return cm
}

// genSocialNetwork connects each user with deg ∈ [1, MaxSocialDegree]
// others (Uniform or Zipf degree draw per Section 6.1), preferring
// same-community friends with probability IntraProb.
func genSocialNetwork(rng *rand.Rand, cm *communities, c Config) *socialnet.Graph {
	g := socialnet.NewGraph(c.SocialUsers)
	z := newZipfInt(rng, c.MaxSocialDegree-1)
	// Community member lists for intra-community sampling.
	members := make([][]socialnet.UserID, len(cm.profiles))
	for u := 0; u < c.SocialUsers; u++ {
		ci := cm.member[u]
		members[ci] = append(members[ci], socialnet.UserID(u))
	}
	for u := 0; u < c.SocialUsers; u++ {
		var deg int
		if c.Dist == Zipf {
			deg = 1 + z.draw()
		} else {
			deg = 1 + rng.Intn(c.MaxSocialDegree)
		}
		for k := 0; k < deg; k++ {
			var v socialnet.UserID
			own := members[cm.member[u]]
			if rng.Float64() < c.IntraProb && len(own) > 1 {
				v = own[rng.Intn(len(own))]
			} else {
				v = socialnet.UserID(rng.Intn(c.SocialUsers))
			}
			g.AddFriendship(socialnet.UserID(u), v)
		}
	}
	return g
}

// genUsers assigns each user a home near their community's center (snapped
// onto the road network) and an interest vector drawn from the community
// profile: profile topics are active with probability 0.85 and off-profile
// topics with probability 0.002; active probabilities are Uniform/Zipf in
// (0.3, 1].
func genUsers(rng *rand.Rand, road *roadnet.Graph, cm *communities, c Config) []model.User {
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
		at, ok := road.SnapPoint(p)
		if !ok {
			panic("gen: road network has no edges")
		}
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

// drawInterestVector draws one user's interest vector from their
// community profile: profile topics are active with probability 0.85 and
// off-profile topics 0.002 — interests are strongly profile-driven, which
// is what lets whole index nodes fall below the interest threshold
// (Lemma 8) the way the paper's real data does. inProfile is caller-owned
// scratch of length c.Topics. The rng draw sequence is exactly the loop
// genUsers historically ran, so seeds reproduce the same datasets.
func drawInterestVector(rng *rand.Rand, c Config, profile []int, inProfile []bool, z *zipfInt) []float64 {
	for f := range inProfile {
		inProfile[f] = false
	}
	for _, f := range profile {
		inProfile[f] = true
	}
	w := make([]float64, c.Topics)
	active := 0
	for f := range w {
		pAct := 0.002
		if inProfile[f] {
			pAct = 0.85
		}
		if rng.Float64() < pAct {
			w[f] = drawProb(rng, c.Dist, z)
			active++
		}
	}
	if active == 0 {
		w[profile[rng.Intn(len(profile))]] = drawProb(rng, c.Dist, z)
	}
	return w
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// drawProb draws an interest probability in (0.3, 1].
func drawProb(rng *rand.Rand, dist Distribution, z *zipfInt) float64 {
	if dist == Zipf {
		// Zipf-ranked probability: popular rank -> high probability.
		return 0.3 + 0.7/float64(z.draw()+1)
	}
	return 0.3 + 0.7*rng.Float64()
}

// zipfInt draws integers in [0, imax] with a Zipf(s=1.5) skew toward 0.
type zipfInt struct {
	z    *rand.Zipf
	imax int
}

func newZipfInt(rng *rand.Rand, imax int) *zipfInt {
	if imax <= 0 {
		return &zipfInt{imax: 0}
	}
	return &zipfInt{z: rand.NewZipf(rng, 1.5, 1, uint64(imax)), imax: imax}
}

func (z *zipfInt) draw() int {
	if z.z == nil {
		return 0
	}
	return int(z.z.Uint64())
}
