// Package model defines the spatial-social network data model shared by the
// GP-SSN indexes, query engine, generators, and benchmarks: the combined
// G_rs = G_r ∪ G_s of Definition 4, with POIs on road edges (Definition 2)
// and users carrying interest vectors and home locations on the road
// network (Definition 3).
package model

import (
	"errors"
	"fmt"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// MaxCoord bounds coordinate magnitude. Beyond it squared distances and
// bounding-box areas overflow to +Inf, which breaks spatial snapping and
// every downstream distance, so such coordinates are rejected alongside
// NaN and ±Inf.
const MaxCoord = 1e150

// The update rules below are defined once and called by every entry point
// that adds an object or an edge: Dataset.Validate, the engine's dynamic
// updates, the facade's mutators and its Builder. Each returns nil or an
// error that names the rule; callers add what was being added. Range tests
// are written in negated form so that NaN, for which every comparison is
// false, fails them.

// CheckPoint rejects a location unless both coordinates are finite and
// within ±MaxCoord.
func CheckPoint(x, y float64) error {
	if !(x >= -MaxCoord && x <= MaxCoord && y >= -MaxCoord && y <= MaxCoord) {
		return fmt.Errorf("coordinates (%v, %v) must be finite and within ±%g", x, y, float64(MaxCoord))
	}
	return nil
}

// CheckInterests rejects an interest vector unless it holds one
// probability in [0,1] per topic.
func CheckInterests(w []float64, topics int) error {
	if len(w) != topics {
		return fmt.Errorf("interest vector length %d, want %d", len(w), topics)
	}
	for f, p := range w {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("interest %d = %v outside [0,1]", f, p)
		}
	}
	return nil
}

// CheckKeywords rejects a POI keyword list unless it is non-empty and
// every keyword lies in the vocabulary [0, topics).
func CheckKeywords(ks []int, topics int) error {
	if len(ks) == 0 {
		return errors.New("needs at least one keyword")
	}
	for _, k := range ks {
		if k < 0 || k >= topics {
			return fmt.Errorf("keyword %d outside vocabulary [0,%d)", k, topics)
		}
	}
	return nil
}

// CheckEnds rejects the ends a, b of a new edge (a friendship or a road
// segment, named by what) over n vertices unless both are in range and
// distinct.
func CheckEnds(what string, a, b, n int) error {
	if a < 0 || a >= n || b < 0 || b >= n {
		return fmt.Errorf("%s %d-%d out of range [0,%d)", what, a, b, n)
	}
	if a == b {
		return fmt.Errorf("self-loop %s at %d", what, a)
	}
	return nil
}

// POIID identifies a point of interest; it is the POI's index in
// Dataset.POIs.
type POIID int32

// POI is a point of interest on a road-network edge (Definition 2): an id,
// a 2D location, and a keyword set drawn from the topic vocabulary
// [0, NumTopics).
type POI struct {
	ID       POIID
	At       roadnet.Attach
	Loc      geo.Point
	Keywords []int
}

// User is a social-network user: a friendship-graph vertex carrying an
// interest vector u.w over the topic vocabulary (each entry a probability
// in [0,1]) and a home location attached to the road network.
type User struct {
	ID        socialnet.UserID
	At        roadnet.Attach
	Loc       geo.Point
	Interests []float64
}

// Dataset is a complete spatial-social network: the road network G_r, the
// social network G_s, the users (one per social vertex, in id order), the
// POIs (in id order), and the size of the shared topic vocabulary.
type Dataset struct {
	Name      string
	Road      *roadnet.Graph
	Social    *socialnet.Graph
	Users     []User
	POIs      []POI
	NumTopics int
}

// Validate checks the structural invariants that every other package
// assumes: one user per social vertex, ids equal to slice positions,
// interest vectors of NumTopics probabilities in [0,1], keywords within the
// vocabulary, and attachments pointing at existing road edges.
func (d *Dataset) Validate() error {
	if d.Road == nil || d.Social == nil {
		return fmt.Errorf("model: nil road or social network")
	}
	if d.NumTopics <= 0 {
		return fmt.Errorf("model: non-positive NumTopics %d", d.NumTopics)
	}
	if len(d.Users) != d.Social.NumUsers() {
		return fmt.Errorf("model: %d users but %d social vertices", len(d.Users), d.Social.NumUsers())
	}
	for v := 0; v < d.Road.NumVertices(); v++ {
		p := d.Road.Vertex(roadnet.VertexID(v))
		if err := CheckPoint(p.X, p.Y); err != nil {
			return fmt.Errorf("model: road vertex %d: %w", v, err)
		}
	}
	for i, u := range d.Users {
		if int(u.ID) != i {
			return fmt.Errorf("model: user at position %d has id %d", i, u.ID)
		}
		if err := CheckInterests(u.Interests, d.NumTopics); err != nil {
			return fmt.Errorf("model: user %d: %w", i, err)
		}
		if err := d.checkAttach(u.At); err != nil {
			return fmt.Errorf("model: user %d: %w", i, err)
		}
	}
	for i, p := range d.POIs {
		if int(p.ID) != i {
			return fmt.Errorf("model: POI at position %d has id %d", i, p.ID)
		}
		if err := CheckKeywords(p.Keywords, d.NumTopics); err != nil {
			return fmt.Errorf("model: POI %d: %w", i, err)
		}
		if err := d.checkAttach(p.At); err != nil {
			return fmt.Errorf("model: POI %d: %w", i, err)
		}
	}
	return nil
}

func (d *Dataset) checkAttach(a roadnet.Attach) error {
	if a.Edge < 0 || int(a.Edge) >= d.Road.NumEdges() {
		return fmt.Errorf("attachment edge %d out of range [0,%d)", a.Edge, d.Road.NumEdges())
	}
	if !(a.T >= 0 && a.T <= 1) { // negated form: NaN must fail too
		return fmt.Errorf("attachment offset %v outside [0,1]", a.T)
	}
	return nil
}

// User returns the user with the given id.
func (d *Dataset) User(id socialnet.UserID) *User { return &d.Users[id] }

// POI returns the POI with the given id.
func (d *Dataset) POI(id POIID) *POI { return &d.POIs[id] }

// Stats summarizes a dataset the way the paper's Table 2 does.
type Stats struct {
	Name        string
	SocialUsers int
	SocialDeg   float64
	RoadVerts   int
	RoadDeg     float64
	NumPOIs     int
	NumTopics   int
	AvgKeywords float64
}

// Stats computes the Table 2 statistics for the dataset.
func (d *Dataset) Stats() Stats {
	kw := 0
	for _, p := range d.POIs {
		kw += len(p.Keywords)
	}
	avgKw := 0.0
	if len(d.POIs) > 0 {
		avgKw = float64(kw) / float64(len(d.POIs))
	}
	return Stats{
		Name:        d.Name,
		SocialUsers: d.Social.NumUsers(),
		SocialDeg:   d.Social.AvgDegree(),
		RoadVerts:   d.Road.NumVertices(),
		RoadDeg:     d.Road.AvgDegree(),
		NumPOIs:     len(d.POIs),
		NumTopics:   d.NumTopics,
		AvgKeywords: avgKw,
	}
}

// String renders the stats as a Table 2 style row.
func (s Stats) String() string {
	return fmt.Sprintf("%s: |V(Gs)|=%d deg(Gs)=%.1f |V(Gr)|=%d deg(Gr)=%.1f n=%d d=%d avgKw=%.1f",
		s.Name, s.SocialUsers, s.SocialDeg, s.RoadVerts, s.RoadDeg, s.NumPOIs, s.NumTopics, s.AvgKeywords)
}
