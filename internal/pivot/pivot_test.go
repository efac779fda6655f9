package pivot

import (
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

func gridRoad(n int) *roadnet.Graph {
	g := roadnet.NewGraph(n*n, 2*n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			g.AddVertex(geo.Pt(float64(c), float64(r)))
		}
	}
	id := func(r, c int) roadnet.VertexID { return roadnet.VertexID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < n {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

func socialPath(n int) *socialnet.Graph {
	g := socialnet.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddFriendship(socialnet.UserID(i), socialnet.UserID(i+1))
	}
	return g
}

func TestRandomPivotsDistinct(t *testing.T) {
	g := gridRoad(5)
	rp := RandomRoad(g, 10, 1)
	seen := map[roadnet.VertexID]bool{}
	for _, p := range rp {
		if seen[p] {
			t.Fatalf("duplicate road pivot %d", p)
		}
		seen[p] = true
	}
	sg := socialPath(30)
	sp := RandomSocial(sg, 10, 2)
	seenU := map[socialnet.UserID]bool{}
	for _, p := range sp {
		if seenU[p] {
			t.Fatalf("duplicate social pivot %d", p)
		}
		seenU[p] = true
	}
}
