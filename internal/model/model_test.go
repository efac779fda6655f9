package model

import (
	"bytes"
	"strings"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// tinyDataset builds the 5-user network resembling the paper's Figure 1:
// a 6-vertex road network with POIs, and 5 users with the Table 1 interest
// vectors (topics: restaurant, shopping mall, cafe).
func tinyDataset() *Dataset {
	road := roadnet.NewGraph(6, 8)
	v := make([]roadnet.VertexID, 6)
	coords := []geo.Point{
		geo.Pt(0, 0), geo.Pt(2, 0), geo.Pt(4, 0),
		geo.Pt(0, 2), geo.Pt(2, 2), geo.Pt(4, 2),
	}
	for i, c := range coords {
		v[i] = road.AddVertex(c)
	}
	edges := []roadnet.EdgeID{
		road.AddEdge(v[0], v[1]),
		road.AddEdge(v[1], v[2]),
		road.AddEdge(v[3], v[4]),
		road.AddEdge(v[4], v[5]),
		road.AddEdge(v[0], v[3]),
		road.AddEdge(v[1], v[4]),
		road.AddEdge(v[2], v[5]),
	}

	social := socialnet.NewGraph(5)
	social.AddFriendship(0, 1)
	social.AddFriendship(0, 2)
	social.AddFriendship(1, 2)
	social.AddFriendship(2, 3)
	social.AddFriendship(3, 4)

	interests := [][]float64{
		{0.7, 0.3, 0.7},
		{0.2, 0.9, 0.3},
		{0.4, 0.8, 0.8},
		{0.9, 0.7, 0.7},
		{0.1, 0.8, 0.5},
	}
	d := &Dataset{
		Name:      "tiny",
		Road:      road,
		Social:    social,
		NumTopics: 3,
	}
	for i, w := range interests {
		at := road.AttachAt(edges[i%len(edges)], 0.25)
		d.Users = append(d.Users, User{
			ID:        socialnet.UserID(i),
			At:        at,
			Loc:       road.Location(at),
			Interests: w,
		})
	}
	poiKw := [][]int{{0}, {1, 2}, {2}, {0, 1}}
	for i, kw := range poiKw {
		at := road.AttachAt(edges[(i*2+1)%len(edges)], 0.6)
		d.POIs = append(d.POIs, POI{
			ID:       POIID(i),
			At:       at,
			Loc:      road.Location(at),
			Keywords: kw,
		})
	}
	return d
}

func TestValidateOK(t *testing.T) {
	if err := tinyDataset().Validate(); err != nil {
		t.Fatalf("Validate = %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := map[string]func(*Dataset){
		"nil road":         func(d *Dataset) { d.Road = nil },
		"bad topic count":  func(d *Dataset) { d.NumTopics = 0 },
		"user id mismatch": func(d *Dataset) { d.Users[1].ID = 7 },
		"short interests":  func(d *Dataset) { d.Users[0].Interests = []float64{0.5} },
		"interest > 1":     func(d *Dataset) { d.Users[0].Interests[0] = 1.5 },
		"interest < 0":     func(d *Dataset) { d.Users[0].Interests[0] = -0.1 },
		"poi id mismatch":  func(d *Dataset) { d.POIs[0].ID = 3 },
		"empty keywords":   func(d *Dataset) { d.POIs[0].Keywords = nil },
		"keyword too big":  func(d *Dataset) { d.POIs[0].Keywords = []int{99} },
		"bad attach edge":  func(d *Dataset) { d.Users[0].At.Edge = 99 },
		"bad attach t":     func(d *Dataset) { d.POIs[0].At.T = 1.5 },
		"user count":       func(d *Dataset) { d.Users = d.Users[:3] },
	}
	for name, corrupt := range cases {
		d := tinyDataset()
		corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", name)
		}
	}
}

func TestStats(t *testing.T) {
	d := tinyDataset()
	s := d.Stats()
	if s.SocialUsers != 5 || s.RoadVerts != 6 || s.NumPOIs != 4 || s.NumTopics != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if s.SocialDeg != 2.0 { // 5 edges, 5 users
		t.Errorf("SocialDeg = %v, want 2.0", s.SocialDeg)
	}
	if s.AvgKeywords != 1.5 { // (1+2+1+2)/4
		t.Errorf("AvgKeywords = %v, want 1.5", s.AvgKeywords)
	}
	if !strings.Contains(s.String(), "tiny") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != d.Name || got.NumTopics != d.NumTopics {
		t.Errorf("header mismatch: %q/%d", got.Name, got.NumTopics)
	}
	if got.Road.NumVertices() != d.Road.NumVertices() || got.Road.NumEdges() != d.Road.NumEdges() {
		t.Errorf("road mismatch")
	}
	if got.Social.NumUsers() != d.Social.NumUsers() || got.Social.NumFriendships() != d.Social.NumFriendships() {
		t.Errorf("social mismatch")
	}
	for i := range d.Users {
		if got.Users[i].At != d.Users[i].At {
			t.Errorf("user %d attach mismatch", i)
		}
		for f := range d.Users[i].Interests {
			if got.Users[i].Interests[f] != d.Users[i].Interests[f] {
				t.Errorf("user %d interest %d mismatch", i, f)
			}
		}
	}
	for i := range d.POIs {
		if got.POIs[i].At != d.POIs[i].At || len(got.POIs[i].Keywords) != len(d.POIs[i].Keywords) {
			t.Errorf("POI %d mismatch", i)
		}
	}
	// Friendship structure preserved.
	if !got.Social.AreFriends(0, 1) || got.Social.AreFriends(0, 4) {
		t.Error("friendships not preserved")
	}
}

func TestSaveDeterministic(t *testing.T) {
	d := tinyDataset()
	var a, b bytes.Buffer
	if err := d.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Save is not deterministic")
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	d := tinyDataset()
	d.NumTopics = 0
	if err := d.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save should reject an invalid dataset")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a dataset at all")); err == nil {
		t.Error("Load should reject garbage")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("Load should reject empty input")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly, never panic.
	for _, frac := range []int{2, 3, 4, 10} {
		cut := len(full) / frac * (frac - 1)
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Load of %d/%d prefix should fail", frac-1, frac)
		}
	}
}

func TestAccessors(t *testing.T) {
	d := tinyDataset()
	if d.User(2).ID != 2 {
		t.Error("User accessor broken")
	}
	if d.POI(1).ID != 1 {
		t.Error("POI accessor broken")
	}
}
