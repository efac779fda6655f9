// Package socialnet implements the social network G_s of the paper
// (Definition 3): an undirected friendship graph over users, with BFS hop
// distances (the paper's dist_SN), hop-distance pivot tables for the
// social-network distance pruning of Lemma 4, and a balanced connected
// graph partitioning that forms the leaf nodes of the GP-SSN social index
// I_S (the paper uses METIS [28]; any balanced connected partitioning has
// the same index semantics).
package socialnet

import "fmt"

// UserID identifies a social-network user.
type UserID int32

// Graph is an undirected friendship graph. Create with NewGraph.
type Graph struct {
	adj      [][]UserID
	numEdges int
}

// NewGraph returns a friendship graph over n users with no edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("socialnet: negative user count %d", n))
	}
	return &Graph{adj: make([][]UserID, n)}
}

// AddUser appends a new user with no friends and returns its id.
func (g *Graph) AddUser() UserID {
	g.adj = append(g.adj, nil)
	return UserID(len(g.adj) - 1)
}

// AddFriendship adds an undirected edge between u and v. Adding a duplicate
// edge or a self-loop is a no-op returning false.
func (g *Graph) AddFriendship(u, v UserID) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return false
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.numEdges++
	return true
}

// AreFriends reports whether u and v share an edge.
func (g *Graph) AreFriends(u, v UserID) bool {
	g.check(u)
	g.check(v)
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// NumUsers returns |V(G_s)|.
func (g *Graph) NumUsers() int { return len(g.adj) }

// NumFriendships returns |E(G_s)|.
func (g *Graph) NumFriendships() int { return g.numEdges }

// Degree returns the number of friends of u.
func (g *Graph) Degree(u UserID) int {
	g.check(u)
	return len(g.adj[u])
}

// AvgDegree returns the average degree (the deg(G_s) statistic of Table 2).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.numEdges) / float64(len(g.adj))
}

// Friends returns u's adjacency slice. Callers must treat it as read-only.
func (g *Graph) Friends(u UserID) []UserID {
	g.check(u)
	return g.adj[u]
}

// Unreachable is the hop distance reported for users in other components.
const Unreachable int32 = -1

// BFSHops returns the hop distance (dist_SN) from src to every user, with
// Unreachable (-1) for users in other components.
func (g *Graph) BFSHops(src UserID) []int32 {
	return g.BFSHopsBounded(src, int32(len(g.adj)))
}

// BFSHopsBounded returns hop distances from src, exploring at most maxHops
// levels; users farther than maxHops (or unreachable) get Unreachable.
// The GP-SSN social-distance pruning (Lemma 4) only needs hops < τ, so a
// bounded BFS avoids touching the whole graph for small groups.
func (g *Graph) BFSHopsBounded(src UserID, maxHops int32) []int32 {
	hops := make([]int32, len(g.adj))
	for i := range hops {
		hops[i] = Unreachable
	}
	g.HopsWithin(src, maxHops, hops, nil)
	return hops
}

// HopsWithin is the bounded BFS into caller scratch: hops must cover every
// user and read Unreachable everywhere on entry. It writes the hop
// distance of every user within maxHops of src and appends those users to
// reached, src first and in BFS order (the list is also the queue), so a
// caller reusing hops resets exactly the entries in the returned list.
func (g *Graph) HopsWithin(src UserID, maxHops int32, hops []int32, reached []UserID) []UserID {
	g.check(src)
	hops[src] = 0
	start := len(reached)
	reached = append(reached, src)
	for d := int32(1); d <= maxHops && start < len(reached); d++ {
		end := len(reached)
		for _, u := range reached[start:end] {
			for _, v := range g.adj[u] {
				if hops[v] == Unreachable {
					hops[v] = d
					reached = append(reached, v)
				}
			}
		}
		start = end
	}
	return reached
}

// WithinHops returns all users at hop distance <= maxHops from src,
// including src itself (hop 0).
func (g *Graph) WithinHops(src UserID, maxHops int32) []UserID {
	hops := g.BFSHopsBounded(src, maxHops)
	var out []UserID
	for u, h := range hops {
		if h != Unreachable {
			out = append(out, UserID(u))
		}
	}
	return out
}

// ConnectedComponents returns a component label per user and the number of
// components.
func (g *Graph) ConnectedComponents() (labels []int, n int) {
	labels = make([]int, len(g.adj))
	for i := range labels {
		labels[i] = -1
	}
	var stack []UserID
	for start := range g.adj {
		if labels[start] >= 0 {
			continue
		}
		stack = append(stack[:0], UserID(start))
		labels[start] = n
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.adj[u] {
				if labels[v] < 0 {
					labels[v] = n
					stack = append(stack, v)
				}
			}
		}
		n++
	}
	return labels, n
}

// IsConnectedSet reports whether the users in set induce a connected
// subgraph of g. GP-SSN's second predicate requires the returned user
// group S to be connected in G_s.
func (g *Graph) IsConnectedSet(set []UserID) bool {
	if len(set) == 0 {
		return true
	}
	in := make(map[UserID]bool, len(set))
	for _, u := range set {
		g.check(u)
		in[u] = true
	}
	seen := map[UserID]bool{set[0]: true}
	stack := []UserID{set[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if in[v] && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return len(seen) == len(in)
}

func (g *Graph) check(u UserID) {
	if u < 0 || int(u) >= len(g.adj) {
		panic(fmt.Sprintf("socialnet: user %d out of range [0,%d)", u, len(g.adj)))
	}
}
