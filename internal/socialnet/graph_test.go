package socialnet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pathGraph builds a path 0-1-2-...-(n-1).
func pathGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddFriendship(UserID(i), UserID(i+1))
	}
	return g
}

// randomGraph builds a connected random graph: a spanning path plus extra
// random edges.
func randomGraph(n, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := pathGraph(n)
	for i := 0; i < extra; i++ {
		g.AddFriendship(UserID(rng.Intn(n)), UserID(rng.Intn(n)))
	}
	return g
}

func TestAddFriendship(t *testing.T) {
	g := NewGraph(3)
	if !g.AddFriendship(0, 1) {
		t.Error("first edge should succeed")
	}
	if g.AddFriendship(0, 1) || g.AddFriendship(1, 0) {
		t.Error("duplicate edge should be rejected")
	}
	if g.AddFriendship(2, 2) {
		t.Error("self-loop should be rejected")
	}
	if g.NumFriendships() != 1 {
		t.Errorf("NumFriendships = %d", g.NumFriendships())
	}
	if !g.AreFriends(0, 1) || !g.AreFriends(1, 0) {
		t.Error("AreFriends should be symmetric")
	}
	if g.AreFriends(0, 2) {
		t.Error("0 and 2 are not friends")
	}
}

func TestAddUser(t *testing.T) {
	g := NewGraph(0)
	a := g.AddUser()
	b := g.AddUser()
	if a != 0 || b != 1 || g.NumUsers() != 2 {
		t.Errorf("AddUser ids %d,%d users=%d", a, b, g.NumUsers())
	}
}

func TestNewGraphNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGraph(-1) should panic")
		}
	}()
	NewGraph(-1)
}

func TestDegreeStats(t *testing.T) {
	g := pathGraph(4)
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Error("path degrees wrong")
	}
	// Path of 4 vertices has 3 edges: avg degree 1.5.
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v", got)
	}
	if NewGraph(0).AvgDegree() != 0 {
		t.Error("empty graph AvgDegree should be 0")
	}
}

func TestBFSHopsPath(t *testing.T) {
	g := pathGraph(6)
	hops := g.BFSHops(0)
	for i := 0; i < 6; i++ {
		if hops[i] != int32(i) {
			t.Fatalf("hops[%d] = %d, want %d", i, hops[i], i)
		}
	}
}

func TestBFSHopsBounded(t *testing.T) {
	g := pathGraph(10)
	hops := g.BFSHopsBounded(0, 3)
	for i := 0; i < 10; i++ {
		want := int32(i)
		if i > 3 {
			want = Unreachable
		}
		if hops[i] != want {
			t.Fatalf("bounded hops[%d] = %d, want %d", i, hops[i], want)
		}
	}
}

func TestBFSHopsDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddFriendship(0, 1)
	g.AddFriendship(2, 3)
	hops := g.BFSHops(0)
	if hops[2] != Unreachable || hops[3] != Unreachable {
		t.Errorf("cross-component hops = %v", hops)
	}
	if hops[1] != 1 {
		t.Errorf("hops[1] = %d, want 1", hops[1])
	}
}

func TestWithinHops(t *testing.T) {
	g := pathGraph(8)
	got := g.WithinHops(3, 2)
	want := map[UserID]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	if len(got) != len(want) {
		t.Fatalf("WithinHops = %v", got)
	}
	for _, u := range got {
		if !want[u] {
			t.Fatalf("unexpected user %d", u)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph(5)
	g.AddFriendship(0, 1)
	g.AddFriendship(1, 2)
	g.AddFriendship(3, 4)
	labels, n := g.ConnectedComponents()
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] {
		t.Errorf("labels = %v", labels)
	}
}

func TestIsConnectedSet(t *testing.T) {
	g := pathGraph(6)
	if !g.IsConnectedSet([]UserID{1, 2, 3}) {
		t.Error("contiguous path slice should be connected")
	}
	if g.IsConnectedSet([]UserID{0, 2}) {
		t.Error("0 and 2 are not adjacent in a path")
	}
	if !g.IsConnectedSet(nil) {
		t.Error("empty set is trivially connected")
	}
	if !g.IsConnectedSet([]UserID{4}) {
		t.Error("singleton is connected")
	}
}

// Property: BFS hop distances satisfy the triangle inequality along edges:
// |hops[u] - hops[v]| <= 1 for every edge (u,v).
func TestBFSHopsEdgeLipschitzProperty(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		n := int(nRaw)%50 + 2
		g := randomGraph(n, int(extraRaw)%100, seed)
		hops := g.BFSHops(0)
		for u := 0; u < n; u++ {
			for _, v := range g.Friends(UserID(u)) {
				d := hops[u] - hops[v]
				if d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHopsWithinReusesScratch runs the bounded BFS from many sources into
// one hop array, resetting only the users each run reached: every run
// must equal a fresh BFSHopsBounded, and the reached list must be exactly
// the users within the bound, source first.
func TestHopsWithinReusesScratch(t *testing.T) {
	g := randomGraph(200, 150, 7)
	hops := make([]int32, g.NumUsers())
	for i := range hops {
		hops[i] = Unreachable
	}
	var reached []UserID
	rng := rand.New(rand.NewSource(8))
	for run := 0; run < 50; run++ {
		src, maxHops := UserID(rng.Intn(g.NumUsers())), int32(rng.Intn(5))
		reached = g.HopsWithin(src, maxHops, hops, reached[:0])
		want := g.BFSHopsBounded(src, maxHops)
		within := 0
		for u := range want {
			if hops[u] != want[u] {
				t.Fatalf("run %d: user %d at %d hops, fresh BFS %d", run, u, hops[u], want[u])
			}
			if want[u] != Unreachable {
				within++
			}
		}
		if len(reached) != within || reached[0] != src {
			t.Fatalf("run %d: reached %d users from %d, %d within %d hops of %d", run, len(reached), reached[0], within, maxHops, src)
		}
		for _, u := range reached {
			hops[u] = Unreachable
		}
	}
}

func TestCheckPanics(t *testing.T) {
	g := NewGraph(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range user should panic")
		}
	}()
	g.Degree(5)
}
