package gpssn

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpssn/internal/socialnet"
)

// walConfig is the durability test configuration: small pivots for fast
// builds, a WAL in a per-test directory, single-threaded by default so
// answer comparisons are noise-free.
func walConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RoadPivots = 3
	cfg.SocialPivots = 3
	cfg.Seed = 11
	cfg.Parallelism = 1
	cfg.WALPath = filepath.Join(t.TempDir(), "updates.wal")
	return cfg
}

// walQueries is the small answer-comparison workload used by the
// durability gates.
var walQueries = []Query{
	{GroupSize: 2, Gamma: 0.2, Theta: 0.3, Radius: 2},
	{GroupSize: 3, Gamma: 0.3, Theta: 0.4, Radius: 2.5},
}

// mustMatchDB gates that two DBs answer identically over the comparison
// workload.
func mustMatchDB(t *testing.T, got, want *DB, label string) {
	t.Helper()
	for _, q := range walQueries {
		for user := 0; user < want.Network().NumUsers(); user += 7 {
			ga, _, gerr := got.Query(user, q)
			wa, _, werr := want.Query(user, q)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s user=%d q=%+v: err mismatch (got=%v want=%v)", label, user, q, gerr, werr)
			}
			if gerr != nil {
				if !errors.Is(gerr, ErrNoAnswer) {
					t.Fatalf("%s user=%d: unexpected error %v", label, user, gerr)
				}
				continue
			}
			if !sameAnswer(ga, wa) {
				t.Fatalf("%s user=%d q=%+v:\n got  %s maxdist=%x\n want %s maxdist=%x",
					label, user, q, answerKey(ga), ga.MaxDistance, answerKey(wa), wa.MaxDistance)
			}
		}
	}
}

// TestWALDurabilityRoundTrip is the basic log-then-apply gate: mutate a
// WAL-backed DB, "crash" (no Close, no Snapshot), and reopen the same
// base network against the surviving log. The recovered DB must answer
// bit-identically to the still-running one.
func TestWALDurabilityRoundTrip(t *testing.T) {
	cfg := walConfig(t)
	db, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, db, 3)
	st := db.WALStats()
	if !st.Enabled || st.LastLSN == 0 || st.AppliedLSN != st.LastLSN {
		t.Fatalf("WAL should have recorded the churn: %+v", st)
	}

	// Crash: the original process never closed its log. SyncAlways means
	// every acknowledged update is already on disk.
	rec, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	if got := rec.WALStats(); got.AppliedLSN != st.AppliedLSN {
		t.Fatalf("recovered AppliedLSN %d, want %d", got.AppliedLSN, st.AppliedLSN)
	}
	found := false
	for _, n := range rec.Health().Notes {
		if len(n) >= 3 && n[:3] == "wal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovery should leave a wal note in Health: %v", rec.Health().Notes)
	}
	mustMatchDB(t, rec, db, "recovered")

	// Recovery must also leave the DB fully updatable: more churn and a
	// Compact on both sides keep them in lockstep.
	churnScript(t, db, 1)
	churnScript(t, rec, 1)
	if err := rec.Compact(); err != nil {
		t.Fatalf("post-recovery Compact: %v", err)
	}
	mustMatchDB(t, rec, db, "recovered+churn+compact")
}

// TestWALCheckpointTruncatesAndPairs: Snapshot is the checkpoint — it
// truncates the log, and the checkpoint+log pair restores the exact
// state. A plain Open against the post-checkpoint log must refuse: its
// records start past the fresh network's applied LSN.
func TestWALCheckpointTruncatesAndPairs(t *testing.T) {
	cfg := walConfig(t)
	ckpt := filepath.Join(filepath.Dir(cfg.WALPath), "state.ckpt")
	db, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, db, 2)
	preLSN := db.WALStats().AppliedLSN
	if err := db.Snapshot(ckpt); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st := db.WALStats(); st.Pending != 0 || st.StartLSN != preLSN+1 {
		t.Fatalf("checkpoint should truncate the log: %+v", st)
	}

	// Post-checkpoint updates land in the truncated log.
	churnScript(t, db, 1)
	if st := db.WALStats(); st.Pending == 0 || st.AppliedLSN <= preLSN {
		t.Fatalf("post-checkpoint churn should append: %+v", st)
	}

	// The pair restores everything: checkpoint base + replayed tail.
	rec, err := OpenSnapshot(ckpt, cfg)
	if err != nil {
		t.Fatalf("OpenSnapshot with wal: %v", err)
	}
	if got, want := rec.WALStats().AppliedLSN, db.WALStats().AppliedLSN; got != want {
		t.Fatalf("recovered AppliedLSN %d, want %d", got, want)
	}
	mustMatchDB(t, rec, db, "checkpoint+tail")

	// A fresh network is NOT the base this log pairs with anymore.
	_, err = Open(churnNetwork(t), cfg)
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open against a checkpointed log: err=%v, want ErrWALCorrupt", err)
	}
	var we *WALError
	if !errors.As(err, &we) {
		t.Fatalf("error %T is not *WALError", err)
	}
}

// TestWALRejectionAtomicity is the update-path error-atomicity gate:
// every ErrInvalidInput rejection leaves the WAL, the answer cache, and
// the POI label table exactly as they were — no record, no flush, no
// released table.
func TestWALRejectionAtomicity(t *testing.T) {
	cfg := walConfig(t)
	cfg.CacheSize = 32
	db, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One good update, then a cached answer to watch.
	if _, err := db.AddPOI(0.5, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	q := walQueries[0]
	if _, _, err := db.Query(3, q); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatal(err)
	}

	walBefore := db.WALStats()
	labelsBefore := db.MemoryStats().POILabelBytes

	rejections := []struct {
		name string
		call func() error
	}{
		{"AddPOI/keyword", func() error { _, err := db.AddPOI(0.1, 0.1, 99); return err }},
		{"AddPOI/nokeywords", func() error { _, err := db.AddPOI(0.1, 0.1); return err }},
		{"AddPOI/nan", func() error { _, err := db.AddPOI(math.NaN(), 0, 0); return err }},
		{"AddUser/interest", func() error { _, err := db.AddUser(0.1, 0.1, []float64{2}); return err }},
		{"AddUser/inf", func() error { _, err := db.AddUser(math.Inf(1), 0, nil); return err }},
		{"AddFriendship/self", func() error { _, err := db.AddFriendship(4, 4); return err }},
		{"AddFriendship/range", func() error { _, err := db.AddFriendship(0, 1e6); return err }},
		{"AddRoadVertex/nan", func() error { _, err := db.AddRoadVertex(math.NaN(), 0); return err }},
		{"AddRoadEdge/self", func() error { _, err := db.AddRoadEdge(2, 2); return err }},
		{"AddRoadEdge/range", func() error { _, err := db.AddRoadEdge(-1, 2); return err }},
		{"AddRoadEdge/dup", func() error {
			ed := db.Network().Dataset().Road.EdgeAt(0)
			_, err := db.AddRoadEdge(int(ed.U), int(ed.V))
			return err
		}},
	}
	for _, rj := range rejections {
		if err := rj.call(); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("%s: err=%v, want ErrInvalidInput", rj.name, err)
		}
		if st := db.WALStats(); st.LastLSN != walBefore.LastLSN || st.Appends != walBefore.Appends {
			t.Fatalf("%s: rejection appended to the WAL: before=%+v after=%+v", rj.name, walBefore, st)
		}
		if labels := db.MemoryStats().POILabelBytes; labels != labelsBefore {
			t.Fatalf("%s: rejection changed the POI label table: %d bytes before, %d after", rj.name, labelsBefore, labels)
		}
		if _, st, err := db.Query(3, q); err == nil || errors.Is(err, ErrNoAnswer) {
			if !st.CacheHit {
				t.Fatalf("%s: rejection flushed the answer cache", rj.name)
			}
		}
	}

	// A duplicate friendship is a no-op, not an error — and logs nothing.
	ds := db.Network().Dataset()
	var fa, fb = -1, -1
	for a := 0; a < ds.Social.NumUsers() && fa < 0; a++ {
		for b := a + 1; b < ds.Social.NumUsers(); b++ {
			if ds.Social.AreFriends(socialnet.UserID(a), socialnet.UserID(b)) {
				fa, fb = a, b
				break
			}
		}
	}
	if fa < 0 {
		t.Fatal("no existing friendship in the test network")
	}
	added, err := db.AddFriendship(fa, fb)
	if err != nil || added {
		t.Fatalf("duplicate friendship: added=%v err=%v, want no-op", added, err)
	}
	if st := db.WALStats(); st.LastLSN != walBefore.LastLSN {
		t.Fatalf("duplicate friendship appended to the WAL: %+v", st)
	}
}

// TestWALSyncPolicies drives each fsync policy end to end through the
// facade; Close flushes batched appends so the round-trip always holds
// for a clean shutdown.
func TestWALSyncPolicies(t *testing.T) {
	for _, sync := range []string{"always", "batch", "none"} {
		t.Run(sync, func(t *testing.T) {
			cfg := walConfig(t)
			cfg.WALSync = sync
			cfg.WALFlushWindow = time.Millisecond
			db, err := Open(churnNetwork(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			churnScript(t, db, 2)
			if got := db.WALStats().Sync; got != sync {
				t.Fatalf("WALStats().Sync = %q, want %q", got, sync)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			rec, err := Open(churnNetwork(t), cfg)
			if err != nil {
				t.Fatalf("reopen after clean Close: %v", err)
			}
			mustMatchDB(t, rec, db, sync)
		})
	}
	t.Run("invalid", func(t *testing.T) {
		cfg := walConfig(t)
		cfg.WALSync = "fsync-sometimes"
		if _, err := Open(churnNetwork(t), cfg); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("bogus WALSync: err=%v, want ErrInvalidInput", err)
		}
	})
}

// TestWALAutoCheckpoint: once the log outgrows WALAutoCheckpointBytes, a
// background checkpoint writes CheckpointPath and truncates the log —
// without blocking the mutating caller — and the checkpoint+log pair
// keeps restoring the exact state.
func TestWALAutoCheckpoint(t *testing.T) {
	cfg := walConfig(t)
	cfg.WALAutoCheckpointBytes = 256
	cfg.CheckpointPath = filepath.Join(filepath.Dir(cfg.WALPath), "auto.ckpt")
	db, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, db, 2)
	waitMaintenance(t, db)
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("auto-checkpoint never wrote %s: %v", cfg.CheckpointPath, err)
	}
	// More churn after the checkpoint, then restore from the pair.
	churnScript(t, db, 1)
	waitMaintenance(t, db)
	rec, err := OpenSnapshot(cfg.CheckpointPath, cfg)
	if err != nil {
		t.Fatalf("OpenSnapshot(auto checkpoint): %v", err)
	}
	mustMatchDB(t, rec, db, "auto-checkpoint")
}

// TestOverlayAutoCompact: with OverlayCompactPortals set, sustained road
// churn triggers the background Compact on its own; queries keep
// answering throughout and the overlay drains.
func TestOverlayAutoCompact(t *testing.T) {
	net := churnNetwork(t)
	cfg := DefaultConfig()
	cfg.RoadPivots = 3
	cfg.SocialPivots = 3
	cfg.Seed = 11
	cfg.Parallelism = 1
	cfg.OverlayCompactPortals = 4
	db, err := Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := walQueries[0]
	deadline := time.Now().Add(30 * time.Second)
	drained := false
	for round := 0; !drained && time.Now().Before(deadline); round++ {
		churnScript(t, db, 1)
		for i := 0; i < 5; i++ {
			if _, _, err := db.Query(i*7%60, q); err != nil && !errors.Is(err, ErrNoAnswer) {
				t.Fatalf("query during auto-compact churn: %v", err)
			}
		}
		waitMaintenance(t, db)
		if ov := db.RoadOverlayStats(); !ov.Active {
			drained = true
		}
	}
	if !drained {
		t.Fatalf("overlay never drained under OverlayCompactPortals: %+v", db.RoadOverlayStats())
	}
	compareVsFreshTwin(t, db, "auto-compact")
}

// TestDBCloseSemantics: Close is idempotent, flushes the log, stops
// updates on a WAL-backed DB, and leaves queries working.
func TestDBCloseSemantics(t *testing.T) {
	cfg := walConfig(t)
	db, err := Open(churnNetwork(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, db, 1)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := db.AddRoadVertex(9, 9); err == nil {
		t.Fatal("update after Close should fail: its durability cannot be honoured")
	}
	if _, _, err := db.Query(0, walQueries[0]); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("query after Close: %v", err)
	}
	// A DB without a WAL closes trivially.
	cfg2 := walConfig(t)
	cfg2.WALPath = ""
	db2, err := Open(churnNetwork(t), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("Close without wal: %v", err)
	}
}

// waitMaintenance waits for any in-flight background maintenance pass to
// finish.
func waitMaintenance(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for db.Maintaining() {
		if time.Now().After(deadline) {
			t.Fatal("maintenance pass never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
