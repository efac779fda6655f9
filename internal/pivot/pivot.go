// Package pivot selects the road-network and social-network pivots the
// triangle-inequality lower bounds of Lemmas 4/5/7/9 are measured from:
// uniformly random distinct vertices and users. The paper's Algorithm 1
// (a random-restart local search over a pivot cost model) was measured
// against these at paper scale and not applied (docs/ALGORITHMS.md).
package pivot

import (
	"math/rand"

	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// RandomRoad returns h uniformly random distinct road vertices.
func RandomRoad(g *roadnet.Graph, h int, seed int64) []roadnet.VertexID {
	rng := rand.New(rand.NewSource(seed))
	nv := g.NumVertices()
	if h > nv {
		h = nv
	}
	out := make([]roadnet.VertexID, 0, h)
	for _, i := range rng.Perm(nv)[:h] {
		out = append(out, roadnet.VertexID(i))
	}
	return out
}

// RandomSocial returns l uniformly random distinct users.
func RandomSocial(g *socialnet.Graph, l int, seed int64) []socialnet.UserID {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumUsers()
	if l > n {
		l = n
	}
	out := make([]socialnet.UserID, 0, l)
	for _, i := range rng.Perm(n)[:l] {
		out = append(out, socialnet.UserID(i))
	}
	return out
}
