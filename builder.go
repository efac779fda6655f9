package gpssn

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// Network is a spatial-social network ready for indexing: construct one
// with a Builder, a generator, or Load.
//
// Its accessors are safe from any number of goroutines, but a Network has
// one writer, the one DB open over it, whose updates the caller must order
// against them (or read through the DB). While two or more DBs are open
// over it, it is read-only (ErrSharedNetwork), and a closed DB reads it
// only while no DB is open over it and none has changed it since the
// close. DB.Compact moves a DB onto a private copy it may write.
type Network struct {
	ds *model.Dataset

	mu  sync.RWMutex // orders updates against Open and closed DBs' reads
	dbs int          // DBs open over the network, guarded by mu
	gen uint64       // bumped by every update and oracle swap, guarded by mu
}

// release hands back one DB's count (Close, Compact's swap, a failed
// Open) and returns the network's generation at that moment.
func (n *Network) release() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dbs--
	return n.gen
}

// NumUsers returns |V(G_s)|.
func (n *Network) NumUsers() int { return n.ds.Social.NumUsers() }

// NumPOIs returns the number of POIs.
func (n *Network) NumPOIs() int { return len(n.ds.POIs) }

// NumIntersections returns |V(G_r)|.
func (n *Network) NumIntersections() int { return n.ds.Road.NumVertices() }

// NumTopics returns the interest/keyword vocabulary size d.
func (n *Network) NumTopics() int { return n.ds.NumTopics }

// Name returns the dataset name.
func (n *Network) Name() string { return n.ds.Name }

// UserInterests returns a copy of a user's interest vector.
func (n *Network) UserInterests(user int) []float64 {
	return append([]float64(nil), n.ds.Users[user].Interests...)
}

// POIKeywords returns a copy of a POI's keyword set.
func (n *Network) POIKeywords(poi int) []int {
	return append([]int(nil), n.ds.POIs[poi].Keywords...)
}

// UserLocation returns the user's home coordinates.
func (n *Network) UserLocation(user int) (x, y float64) {
	p := n.ds.Users[user].Loc
	return p.X, p.Y
}

// POILocation returns the POI's coordinates.
func (n *Network) POILocation(poi int) (x, y float64) {
	p := n.ds.POIs[poi].Loc
	return p.X, p.Y
}

// RoadDistance returns the exact road-network distance between a user's
// home and a POI (the dist_RN of the paper).
func (n *Network) RoadDistance(user, poi int) float64 {
	return n.ds.Road.DistAttach(n.ds.Users[user].At, n.ds.POIs[poi].At)
}

// AreFriends reports whether two users share a friendship edge.
func (n *Network) AreFriends(a, b int) bool {
	return n.ds.Social.AreFriends(socialnet.UserID(a), socialnet.UserID(b))
}

// Stats returns the Table 2 style statistics line for the network.
func (n *Network) Stats() string { return n.ds.Stats().String() }

// Dataset exposes the internal dataset for the benchmark harness.
func (n *Network) Dataset() *model.Dataset { return n.ds }

// Save writes the network in the library's binary format.
func (n *Network) Save(w io.Writer) error { return n.ds.Save(w) }

// Load reads a network written by Save. The returned Network is immutable
// and safe to share across goroutines.
func Load(r io.Reader) (*Network, error) {
	ds, err := model.Load(r)
	if err != nil {
		return nil, err
	}
	return &Network{ds: ds}, nil
}

// NetworkFromDataset wraps an internal dataset (used by generators and the
// benchmark harness).
func NetworkFromDataset(ds *model.Dataset) (*Network, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return &Network{ds: ds}, nil
}

// Builder assembles a spatial-social network programmatically. Add the
// road network first (intersections, then roads), then POIs and users —
// POIs and users are snapped onto the nearest road segment.
//
// A Builder is not safe for concurrent use: assemble the network on one
// goroutine, call Build, and share the resulting immutable Network
// freely.
type Builder struct {
	topics  int
	name    string
	road    *roadnet.Graph
	friends [][2]int
	users   []model.User
	pois    []model.POI
	errs    []error
}

// NewBuilder starts a network over a vocabulary of `topics` interest
// topics (shared by user interests and POI keywords).
func NewBuilder(topics int) *Builder {
	b := &Builder{topics: topics, road: roadnet.NewGraph(16, 16), name: "custom"}
	if topics <= 0 {
		b.errs = append(b.errs, fmt.Errorf("gpssn: topics must be positive, got %d", topics))
	}
	return b
}

// SetName names the dataset.
func (b *Builder) SetName(name string) *Builder {
	b.name = name
	return b
}

// fail records err, if any, for Build to report, prefixed by what (a
// format with args) names, and reports whether there was one.
func (b *Builder) fail(err error, what string, args ...any) bool {
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("gpssn: %s: %w", fmt.Sprintf(what, args...), err))
	}
	return err != nil
}

// snap checks (x, y) and snaps it onto the nearest road segment, recording
// an error when the point is unusable or no road exists yet.
func (b *Builder) snap(x, y float64, what string, id int) (roadnet.Attach, geo.Point) {
	if b.fail(model.CheckPoint(x, y), "%s %d", what, id) {
		return roadnet.Attach{}, geo.Point{}
	}
	at, ok := b.road.SnapPoint(geo.Pt(x, y))
	if !ok {
		b.fail(errors.New("added before any road exists"), "%s %d", what, id)
		return at, geo.Point{}
	}
	return at, b.road.Location(at)
}

// AddIntersection adds a road-network vertex and returns its id.
func (b *Builder) AddIntersection(x, y float64) int {
	b.fail(model.CheckPoint(x, y), "intersection %d", b.road.NumVertices())
	return int(b.road.AddVertex(geo.Pt(x, y)))
}

// AddRoad adds a road segment between two intersections. Parallel roads
// are allowed.
func (b *Builder) AddRoad(a, c int) *Builder {
	if !b.fail(model.CheckEnds("road", a, c, b.road.NumVertices()), "AddRoad") {
		b.road.AddEdge(roadnet.VertexID(a), roadnet.VertexID(c))
	}
	return b
}

// AddPOI places a POI at (x, y), snapped onto the nearest road segment,
// with the given keywords. It returns the POI id.
func (b *Builder) AddPOI(x, y float64, keywords ...int) int {
	id := len(b.pois)
	at, loc := b.snap(x, y, "POI", id)
	b.fail(model.CheckKeywords(keywords, b.topics), "POI %d", id)
	b.pois = append(b.pois, model.POI{
		ID:       model.POIID(id),
		At:       at,
		Loc:      loc,
		Keywords: append([]int(nil), keywords...),
	})
	return id
}

// AddUser adds a user with a home at (x, y) (snapped onto the nearest road
// segment) and the given interest vector of length NumTopics with entries
// in [0,1]. It returns the user id.
func (b *Builder) AddUser(x, y float64, interests []float64) int {
	id := len(b.users)
	at, loc := b.snap(x, y, "user", id)
	b.fail(model.CheckInterests(interests, b.topics), "user %d", id)
	b.users = append(b.users, model.User{
		ID:        socialnet.UserID(id),
		At:        at,
		Loc:       loc,
		Interests: append([]float64(nil), interests...),
	})
	return id
}

// AddFriendship records a friendship between two users added earlier.
func (b *Builder) AddFriendship(a, c int) *Builder {
	if !b.fail(model.CheckEnds("friendship", a, c, len(b.users)), "AddFriendship") {
		b.friends = append(b.friends, [2]int{a, c})
	}
	return b
}

// Build validates and freezes the network. All accumulated construction
// errors are reported at once.
func (b *Builder) Build() (*Network, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("gpssn: %d build errors, first: %w", len(b.errs), b.errs[0])
	}
	social := socialnet.NewGraph(len(b.users))
	for _, f := range b.friends {
		social.AddFriendship(socialnet.UserID(f[0]), socialnet.UserID(f[1]))
	}
	ds := &model.Dataset{
		Name:      b.name,
		Road:      b.road,
		Social:    social,
		Users:     b.users,
		POIs:      b.pois,
		NumTopics: b.topics,
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return &Network{ds: ds}, nil
}
