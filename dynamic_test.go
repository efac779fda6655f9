package gpssn

import (
	"errors"
	"math"
	"testing"
)

func TestDynamicFacadeLifecycle(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if db.PendingUpdates() != 0 {
		t.Fatal("fresh DB should have no pending updates")
	}

	// A new cafe and a new cafe-loving friend of user 0.
	poi, err := db.AddPOI(1.0, 0.5, 2)
	if err != nil {
		t.Fatalf("AddPOI: %v", err)
	}
	user, err := db.AddUser(0.9, 0.4, []float64{0.8, 0.1, 0.9})
	if err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	if _, err := db.AddFriendship(0, user); err != nil {
		t.Fatalf("AddFriendship: %v", err)
	}
	if db.PendingUpdates() == 0 {
		t.Error("updates should be pending")
	}

	// The new user and POI must be visible to queries right away.
	q := Query{GroupSize: 2, Gamma: 0.5, Theta: 0.5, Radius: 1.5}
	ans, _, err := db.Query(0, q)
	if err != nil {
		t.Fatalf("Query after updates: %v", err)
	}
	preCompact := ans.MaxDistance

	// Network accessors see the delta too.
	if db.Network().NumPOIs() != 5 || db.Network().NumUsers() != 6 {
		t.Errorf("network sizes: %d POIs, %d users", db.Network().NumPOIs(), db.Network().NumUsers())
	}
	_ = poi

	// Compaction must not change the answer.
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if db.PendingUpdates() != 0 {
		t.Error("compaction should clear pending updates")
	}
	ans2, _, err := db.Query(0, q)
	if err != nil {
		t.Fatalf("Query after compact: %v", err)
	}
	if math.Abs(ans2.MaxDistance-preCompact) > 1e-9 {
		t.Errorf("compaction changed the answer: %v vs %v", ans2.MaxDistance, preCompact)
	}
}

func TestDynamicNewUserJoinsGroup(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	// User 4 has weak ties; give them a highly compatible new friend and a
	// query that only this pair can satisfy: γ=1.02 excludes user 4's only
	// other friend (sim(3,4) = 1.00) but not the newbie (sim = 1.04).
	newbie, err := db.AddUser(1.6, 1.0, []float64{0.2, 0.9, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddFriendship(4, newbie); err != nil {
		t.Fatal(err)
	}
	q := Query{GroupSize: 2, Gamma: 1.02, Theta: 0.3, Radius: 2}
	ans, _, err := db.Query(4, q)
	if err != nil {
		if errors.Is(err, ErrNoAnswer) {
			t.Fatal("expected the new friend to enable an answer")
		}
		t.Fatal(err)
	}
	hasNewbie := false
	for _, u := range ans.Users {
		if u == newbie {
			hasNewbie = true
		}
	}
	if !hasNewbie {
		t.Errorf("group %v should include the new user %d", ans.Users, newbie)
	}
}

func TestDynamicFacadeValidation(t *testing.T) {
	net := figure1Network(t)
	db, err := Open(net, Config{RoadPivots: 2, SocialPivots: 2, LeafSize: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"POI without keywords", func() error { _, err := db.AddPOI(0, 0); return err }},
		{"out-of-vocabulary keyword", func() error { _, err := db.AddPOI(0, 0, 99); return err }},
		{"short interest vector", func() error { _, err := db.AddUser(0, 0, []float64{0.5}); return err }},
		{"self-friendship", func() error { _, err := db.AddFriendship(0, 0); return err }},
		{"unknown user", func() error { _, err := db.AddFriendship(0, 999); return err }},
	} {
		if err := c.call(); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err=%v, want ErrInvalidInput", c.name, err)
		}
	}
}
