package model

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// CSVInput bundles the readers for LoadCSV. The formats mirror the public
// dumps the paper used (SNAP edge lists for Brightkite/Gowalla, the
// DIMACS/Utah road files for California/Colorado):
//
//   - RoadVertices: "id,x,y" — intersection coordinates, ids must be
//     0..N-1 in any order.
//   - RoadEdges: "u,v" — undirected road segments between vertex ids.
//   - SocialEdges: "u,v" — undirected friendships between user ids
//     0..M-1; M is taken from the Users file.
//   - Users: "id,x,y,p0,p1,...,p_{d-1}" — home coordinates (snapped onto
//     the nearest road segment) and the interest vector.
//   - POIs: "id,x,y,k0[;k1;k2...]" — POI coordinates (snapped) and a
//     semicolon-separated keyword list.
//
// Lines starting with '#' and blank lines are ignored. The vocabulary
// size d is inferred from the first user row.
type CSVInput struct {
	Name         string
	RoadVertices io.Reader
	RoadEdges    io.Reader
	SocialEdges  io.Reader
	Users        io.Reader
	POIs         io.Reader
}

// LoadCSV assembles a dataset from CSV inputs and validates it.
func LoadCSV(in CSVInput) (*Dataset, error) {
	if in.RoadVertices == nil || in.RoadEdges == nil || in.Users == nil || in.POIs == nil {
		return nil, fmt.Errorf("model: RoadVertices, RoadEdges, Users, and POIs readers are required")
	}

	// Road vertices.
	rows, err := readCSV(in.RoadVertices)
	if err != nil {
		return nil, fmt.Errorf("model: road vertices: %w", err)
	}
	type vrec struct{ x, y float64 }
	verts := map[int]vrec{}
	maxID := -1
	for i, row := range rows {
		if len(row) != 3 {
			return nil, fmt.Errorf("model: road vertex row %d: want id,x,y got %d fields", i+1, len(row))
		}
		id, err1 := strconv.Atoi(row[0])
		x, err2 := strconv.ParseFloat(row[1], 64)
		y, err3 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("model: road vertex row %d: bad numbers", i+1)
		}
		if err := CheckPoint(x, y); err != nil {
			return nil, fmt.Errorf("model: road vertex row %d: %w", i+1, err)
		}
		if _, dup := verts[id]; dup {
			return nil, fmt.Errorf("model: duplicate road vertex id %d", id)
		}
		verts[id] = vrec{x, y}
		if id > maxID {
			maxID = id
		}
	}
	if len(verts) == 0 {
		return nil, fmt.Errorf("model: no road vertices")
	}
	if maxID != len(verts)-1 {
		return nil, fmt.Errorf("model: road vertex ids must be 0..%d, max seen %d", len(verts)-1, maxID)
	}
	road := roadnet.NewGraph(len(verts), len(verts)*2)
	for id := 0; id < len(verts); id++ {
		v := verts[id]
		road.AddVertex(geo.Pt(v.x, v.y))
	}

	// Road edges.
	rows, err = readCSV(in.RoadEdges)
	if err != nil {
		return nil, fmt.Errorf("model: road edges: %w", err)
	}
	for i, row := range rows {
		u, v, err := edgeRow(row)
		if err != nil {
			return nil, fmt.Errorf("model: road edge row %d: %w", i+1, err)
		}
		if u < 0 || u >= len(verts) || v < 0 || v >= len(verts) {
			return nil, fmt.Errorf("model: road edge row %d references missing vertex", i+1)
		}
		if u == v {
			return nil, fmt.Errorf("model: road edge row %d is a self-loop", i+1)
		}
		if road.HasEdge(roadnet.VertexID(u), roadnet.VertexID(v)) {
			return nil, fmt.Errorf("model: road edge row %d: duplicate edge %d-%d", i+1, u, v)
		}
		road.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v))
	}
	if road.NumEdges() == 0 {
		return nil, fmt.Errorf("model: no road edges")
	}

	// Users.
	rows, err = readCSV(in.Users)
	if err != nil {
		return nil, fmt.Errorf("model: users: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("model: no users")
	}
	d := len(rows[0]) - 3
	if d < 1 {
		return nil, fmt.Errorf("model: user rows need id,x,y plus at least one interest")
	}
	users := make([]User, len(rows))
	seenU := make([]bool, len(rows))
	for i, row := range rows {
		if len(row) != d+3 {
			return nil, fmt.Errorf("model: user row %d has %d fields, want %d", i+1, len(row), d+3)
		}
		id, err := strconv.Atoi(row[0])
		if err != nil || id < 0 || id >= len(rows) {
			return nil, fmt.Errorf("model: user row %d: id must be 0..%d", i+1, len(rows)-1)
		}
		if seenU[id] {
			return nil, fmt.Errorf("model: duplicate user id %d", id)
		}
		seenU[id] = true
		x, err1 := strconv.ParseFloat(row[1], 64)
		y, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || CheckPoint(x, y) != nil {
			return nil, fmt.Errorf("model: user row %d: bad coordinates", i+1)
		}
		w := make([]float64, d)
		for f := 0; f < d; f++ {
			p, err := strconv.ParseFloat(row[3+f], 64)
			if err != nil {
				return nil, fmt.Errorf("model: user row %d: bad interest %d", i+1, f)
			}
			w[f] = p
		}
		at, ok := road.SnapPoint(geo.Pt(x, y))
		if !ok {
			return nil, fmt.Errorf("model: user row %d: cannot snap onto road network", i+1)
		}
		users[id] = User{
			ID: socialnet.UserID(id), At: at, Loc: road.Location(at), Interests: w,
		}
	}

	// Social edges.
	social := socialnet.NewGraph(len(users))
	if in.SocialEdges != nil {
		rows, err = readCSV(in.SocialEdges)
		if err != nil {
			return nil, fmt.Errorf("model: social edges: %w", err)
		}
		for i, row := range rows {
			u, v, err := edgeRow(row)
			if err != nil {
				return nil, fmt.Errorf("model: social edge row %d: %w", i+1, err)
			}
			if u < 0 || u >= len(users) || v < 0 || v >= len(users) {
				return nil, fmt.Errorf("model: social edge row %d references missing user", i+1)
			}
			if u == v {
				return nil, fmt.Errorf("model: social edge row %d is a self-loop", i+1)
			}
			if social.AreFriends(socialnet.UserID(u), socialnet.UserID(v)) {
				return nil, fmt.Errorf("model: social edge row %d: duplicate friendship %d-%d", i+1, u, v)
			}
			social.AddFriendship(socialnet.UserID(u), socialnet.UserID(v))
		}
	}

	// POIs.
	rows, err = readCSV(in.POIs)
	if err != nil {
		return nil, fmt.Errorf("model: POIs: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("model: no POIs")
	}
	pois := make([]POI, len(rows))
	seenP := make([]bool, len(rows))
	for i, row := range rows {
		if len(row) != 4 {
			return nil, fmt.Errorf("model: POI row %d: want id,x,y,keywords got %d fields", i+1, len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil || id < 0 || id >= len(rows) {
			return nil, fmt.Errorf("model: POI row %d: id must be 0..%d", i+1, len(rows)-1)
		}
		if seenP[id] {
			return nil, fmt.Errorf("model: duplicate POI id %d", id)
		}
		seenP[id] = true
		x, err1 := strconv.ParseFloat(row[1], 64)
		y, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || CheckPoint(x, y) != nil {
			return nil, fmt.Errorf("model: POI row %d: bad coordinates", i+1)
		}
		var kws []int
		for _, part := range strings.Split(row[3], ";") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			k, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("model: POI row %d: bad keyword %q", i+1, part)
			}
			kws = append(kws, k)
		}
		at, ok := road.SnapPoint(geo.Pt(x, y))
		if !ok {
			return nil, fmt.Errorf("model: POI row %d: cannot snap onto road network", i+1)
		}
		pois[id] = POI{ID: POIID(id), At: at, Loc: road.Location(at), Keywords: kws}
	}

	name := in.Name
	if name == "" {
		name = "csv-import"
	}
	ds := &Dataset{
		Name: name, Road: road, Social: social,
		Users: users, POIs: pois, NumTopics: d,
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("model: imported dataset invalid: %w", err)
	}
	return ds, nil
}

// readCSV parses rows, dropping comment and blank lines.
func readCSV(r io.Reader) ([][]string, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	var out [][]string
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if len(row) == 1 && strings.TrimSpace(row[0]) == "" {
			continue
		}
		out = append(out, row)
	}
}

func edgeRow(row []string) (int, int, error) {
	if len(row) != 2 {
		return 0, 0, fmt.Errorf("want u,v got %d fields", len(row))
	}
	u, err1 := strconv.Atoi(strings.TrimSpace(row[0]))
	v, err2 := strconv.Atoi(strings.TrimSpace(row[1]))
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad vertex ids %q,%q", row[0], row[1])
	}
	return u, v, nil
}
