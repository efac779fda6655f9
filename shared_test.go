package gpssn

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"gpssn/internal/core"
	"gpssn/internal/failpoint"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// networkState is what an update can change about a network.
type networkState struct{ users, socialUsers, pois, friendships, vertices, edges int }

func stateOfNetwork(n *Network) networkState {
	ds := n.Dataset()
	return networkState{len(ds.Users), ds.Social.NumUsers(), len(ds.POIs), ds.Social.NumFriendships(), ds.Road.NumVertices(), ds.Road.NumEdges()}
}

// oneOfEachUpdate returns the five mutators, each set up to change the
// network's current state: a user, a friendship and a chord that are not
// there yet, a POI and an isolated road vertex.
func oneOfEachUpdate(t *testing.T, n *Network) map[string]func(*DB) error {
	t.Helper()
	ds := n.Dataset()
	fa, fb := -1, -1
	for u := 1; u < len(ds.Users) && fa < 0; u++ {
		if !ds.Social.AreFriends(0, socialnet.UserID(u)) {
			fa, fb = 0, u
		}
	}
	ra, rb := -1, -1
	for v := 1; v < ds.Road.NumVertices() && ra < 0; v++ {
		if !ds.Road.HasEdge(0, roadnet.VertexID(v)) {
			ra, rb = 0, v
		}
	}
	if fa < 0 || ra < 0 {
		t.Fatal("no missing friendship or road edge to add")
	}
	interests := make([]float64, n.NumTopics())
	for i := range interests {
		interests[i] = 0.5
	}
	x, y := n.UserLocation(0)
	return map[string]func(*DB) error{
		"AddUser":       func(db *DB) error { _, err := db.AddUser(x, y, interests); return err },
		"AddFriendship": func(db *DB) error { _, err := db.AddFriendship(fa, fb); return err },
		"AddPOI":        func(db *DB) error { _, err := db.AddPOI(x, y, 0, 1); return err },
		"AddRoadVertex": func(db *DB) error { _, err := db.AddRoadVertex(x+0.3, y+0.3); return err },
		"AddRoadEdge":   func(db *DB) error { _, err := db.AddRoadEdge(ra, rb); return err },
	}
}

// checkBaseline gates db's answers against the brute-force Baseline over
// the network db serves.
func checkBaseline(t *testing.T, db *DB, label string) {
	t.Helper()
	baseline := &core.Baseline{DS: db.Network().Dataset()}
	for _, q := range walQueries {
		for user := 0; user < db.Network().NumUsers(); user += 4 {
			p := core.Params{Gamma: q.Gamma, Tau: q.GroupSize, Theta: q.Theta, R: q.Radius}
			want, _ := baseline.Query(socialnet.UserID(user), p)
			ans, _, err := db.Query(user, q)
			if errors.Is(err, ErrNoAnswer) && !want.Found {
				continue
			}
			if err != nil {
				t.Fatalf("%s user=%d q=%+v: %v", label, user, q, err)
			}
			if !want.Found || !sameCost(ans.MaxDistance, want.MaxDist) {
				t.Fatalf("%s user=%d q=%+v: cost %v, Baseline %+v", label, user, q, ans.MaxDistance, want)
			}
		}
	}
}

// whileReading runs fn while another goroutine keeps reading through db,
// its queries and its stat accessors, and waits for that goroutine.
func whileReading(db *DB, fn func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for user := 0; ; user = (user + 7) % 60 {
			select {
			case <-stop:
				return
			default:
			}
			db.Query(user, walQueries[0])
			db.PendingUpdates()
			db.RoadOverlayStats()
			db.MemoryStats()
		}
	}()
	fn()
	close(stop)
	<-done
}

// TestSharedNetworkIsReadOnly: a network two open DBs share is read-only.
// Every update through either DB is refused with ErrSharedNetwork before
// it reaches the WAL (no append, no fsync) and changes nothing, while the
// other DB reads (under -race, make churn-suite), and both keep answering
// as Baseline does. Once one is closed the other writes again, beside the
// closed one's reads, and the closed one refuses queries over the network
// it no longer describes.
func TestSharedNetworkIsReadOnly(t *testing.T) {
	net := churnNetwork(t)
	a, err := Open(net, walConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(net, walConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	updates := oneOfEachUpdate(t, net)
	before := stateOfNetwork(net)
	for name, db := range map[string]*DB{"A": a, "B": b} {
		other := a
		if db == a {
			other = b
		}
		wal := db.WALStats()
		whileReading(other, func() {
			for kind, update := range updates {
				if err := update(db); !errors.Is(err, ErrSharedNetwork) {
					t.Errorf("%s through DB %s beside another open DB: %v, want ErrSharedNetwork", kind, name, err)
				}
			}
		})
		if got := db.WALStats(); got.Appends != wal.Appends || got.Fsyncs != wal.Fsyncs || got.LastLSN != wal.LastLSN {
			t.Errorf("DB %s: refused updates reached the WAL: %+v, before %+v", name, got, wal)
		}
	}
	if got := stateOfNetwork(net); got != before {
		t.Errorf("refused updates changed the network: %+v, before %+v", got, before)
	}
	checkBaseline(t, a, "shared, DB A")
	checkBaseline(t, b, "shared, DB B")

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	whileReading(b, func() {
		for kind, update := range updates {
			if err := update(a); err != nil {
				t.Errorf("%s through DB A after B closed: %v", kind, err)
			}
		}
	})
	if got := a.WALStats().Appends; got != int64(len(updates)) {
		t.Fatalf("DB A appended %d records for %d updates", got, len(updates))
	}
	checkBaseline(t, a, "DB A after its updates")
	if _, _, err := b.Query(0, walQueries[0]); !errors.Is(err, ErrSharedNetwork) {
		t.Fatalf("closed DB B queried beside open DB A: %v, want ErrSharedNetwork", err)
	}
}

// answerBits renders db's answers over the comparison workload with their
// cost bits.
func answerBits(t *testing.T, db *DB) string {
	t.Helper()
	var s string
	for _, q := range walQueries {
		for user := 0; user < db.Network().NumUsers(); user += 3 {
			ans, _, err := db.Query(user, q)
			switch {
			case errors.Is(err, ErrNoAnswer):
				s += "none\n"
			case err != nil:
				t.Fatalf("user %d q=%+v: %v", user, q, err)
			default:
				s += fmt.Sprintf("%s cost=%#x\n", answerKey(ans), math.Float64bits(ans.MaxDistance))
			}
		}
	}
	return s
}

// TestSharedNetworkKeepsOracle: an Open over a network a live hl DB serves
// fails with ErrSharedNetwork when it asks for a backend whose fallback
// chain misses hl, instead of attaching its own oracle under the live DB;
// the live DB's oracle, POI label table and answer bits stay as they were.
// Asking for the backend the network serves, or one whose chain reaches
// it, shares it; an unknown backend fails as unknown.
func TestSharedNetworkKeepsOracle(t *testing.T) {
	net := churnNetwork(t)
	cfg := DefaultConfig()
	cfg.RoadPivots, cfg.SocialPivots, cfg.Parallelism = 3, 3, 1
	a, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	road := net.Dataset().Road
	oracle, table := road.Oracle(), a.Engine().POILabels()
	if table == nil {
		t.Fatal("an hl DB holds no POI label table")
	}
	want := answerBits(t, a)
	for _, kind := range []string{"dijkstra", "ch"} {
		c := cfg
		c.DistanceOracle = kind
		if _, err := Open(net, c); !errors.Is(err, ErrSharedNetwork) {
			t.Errorf("Open with %q over a live hl DB's network: %v, want ErrSharedNetwork", kind, err)
		}
	}
	if road.Oracle() != oracle || a.Engine().POILabels() != table {
		t.Fatal("a refused Open changed the live DB's oracle or label table")
	}
	if got := answerBits(t, a); got != want {
		t.Fatalf("the live DB's answers changed:\n%s\nwant\n%s", got, want)
	}
	b, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if road.Oracle() != oracle || b.Engine().POILabels() == nil {
		t.Fatal("a second hl DB did not share the network's labels")
	}
	if got := answerBits(t, b); got != want {
		t.Fatalf("the second hl DB's answers differ:\n%s\nwant\n%s", got, want)
	}
	bogus := cfg
	bogus.DistanceOracle = "bogus"
	if _, err := Open(net, bogus); err == nil || errors.Is(err, ErrSharedNetwork) {
		t.Errorf("Open with an unknown oracle beside live DBs: %v, want the unknown-oracle error", err)
	}

	// Beside open DBs an Open shares their backend whenever a fresh Open
	// of its own config could have ended on it down the fallback chain,
	// reported as degraded: a second Open with the first's config after
	// the first's hl build failed over to ch, and a ch Open after a road
	// edge detached the live DB's CH.
	t.Cleanup(failpoint.Reset)
	failpoint.Arm("oracle.build.hl", failpoint.Failure{Mode: failpoint.ModeError, Err: errors.New("injected"), Count: 1})
	net = churnNetwork(t)
	a, err = Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := a.Health(); h.OracleActive != "ch" {
		t.Fatalf("the first Open serves %q, want the ch fallback", h.OracleActive)
	}
	b, err = Open(net, cfg)
	if err != nil {
		t.Fatalf("a second Open with the first's config: %v", err)
	}
	if h := b.Health(); h.OracleRequested != "hl" || h.OracleActive != "ch" || !h.Degraded {
		t.Fatalf("the second Open's health: %+v, want hl requested, ch shared, degraded", h)
	}
	if got, want := answerBits(t, b), answerBits(t, a); got != want {
		t.Fatalf("the DB sharing the fallback answers differently:\n%s\nwant\n%s", got, want)
	}

	cfg.DistanceOracle = "ch"
	net = churnNetwork(t)
	c, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oneOfEachUpdate(t, net)["AddRoadEdge"](c); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); h.OracleActive != "dijkstra" {
		t.Fatalf("after a road edge the ch DB serves %q, want dijkstra", h.OracleActive)
	}
	d, err := Open(net, cfg)
	if err != nil {
		t.Fatalf("a ch Open beside a DB whose CH a road edge detached: %v", err)
	}
	if h := d.Health(); h.OracleActive != "dijkstra" || !h.Degraded {
		t.Fatalf("its health: %+v, want dijkstra shared, degraded", h)
	}
	checkBaseline(t, d, "ch Open sharing dijkstra")
}

// TestClosedDBRefusesChangedNetwork: a closed DB reads its network only as
// Close left it. Once another DB has opened over the network and changed
// it, by any one update or by attaching another oracle, the closed DB's
// queries and Snapshot fail with ErrSharedNetwork, also after that DB
// closed: its indexes, pivot vectors, keyword rows, topic table and label
// table describe the old network. A DB that only read in between changes
// nothing, and the closed DB still answers as Baseline does.
func TestClosedDBRefusesChangedNetwork(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALPath = ""
	for _, change := range []string{"AddUser", "AddFriendship", "AddPOI", "AddRoadVertex", "AddRoadEdge", "ch", "dijkstra", "read-only"} {
		t.Run(change, func(t *testing.T) {
			net := churnNetwork(t)
			a, err := Open(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			update := oneOfEachUpdate(t, net)[change]
			bcfg := cfg
			if update == nil && change != "read-only" {
				bcfg.DistanceOracle = change
			}
			b, err := Open(net, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			if update != nil {
				if err := update(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, qerr := a.Query(0, walQueries[0])
			serr := a.Snapshot(filepath.Join(t.TempDir(), "closed.snap"))
			if change == "read-only" {
				if qerr != nil && !errors.Is(qerr, ErrNoAnswer) || serr != nil {
					t.Fatalf("closed DB after a read-only DB came and went: query %v, snapshot %v", qerr, serr)
				}
				checkBaseline(t, a, "closed DB")
				return
			}
			if !errors.Is(qerr, ErrSharedNetwork) || !errors.Is(serr, ErrSharedNetwork) {
				t.Fatalf("closed DB after %s through another DB: query %v, snapshot %v, want ErrSharedNetwork", change, qerr, serr)
			}
		})
	}
}

// TestCompactForksSharedNetwork: Compact moves a DB onto a private copy
// of its network, which shares no mutable state with the original. The
// compacted DB writes although another DB is still open over the
// original, and none of its updates reach the original: the other DB's
// network keeps its users, friendships, POIs and roads, and its answers
// stay Baseline's.
func TestCompactForksSharedNetwork(t *testing.T) {
	net := churnNetwork(t)
	cfg := walConfig(t)
	cfg.WALPath = ""
	a, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := stateOfNetwork(net)
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if a.Network() == net {
		t.Fatal("Compact left the DB on the shared network")
	}
	updates := oneOfEachUpdate(t, a.Network())
	for kind, update := range updates {
		if err := update(a); err != nil {
			t.Fatalf("%s after Compact: %v", kind, err)
		}
	}
	if got := stateOfNetwork(net); got != before {
		t.Fatalf("updates after Compact reached the original network: %+v, before %+v", got, before)
	}
	if got := stateOfNetwork(a.Network()); got == before {
		t.Fatal("the updates changed nothing")
	}
	checkBaseline(t, a, "compacted DB")
	checkBaseline(t, b, "DB left on the original network")
}
