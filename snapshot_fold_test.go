package gpssn

import (
	"fmt"
	"path/filepath"
	"testing"
)

// Satellite gate: a Snapshot taken while road deltas are pending must fold
// them into the persisted dataset. The reopened DB answers bit-identically
// to the live churned DB: the dataset section serialized the grown graph,
// the hub labels travel with the road inserts folded in (a CH a new edge
// detached is rebuilt over the full topology), and the reopened DB counts
// no insert.
func TestSnapshotFoldsPendingDeltas(t *testing.T) {
	for _, kind := range []string{"hl", "ch", "dijkstra"} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/P%d", kind, par), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.RoadPivots = 3
				cfg.SocialPivots = 3
				cfg.Seed = 11
				cfg.DistanceOracle = kind
				cfg.Parallelism = par

				db, err := Open(churnNetwork(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				churnScript(t, db, 3)
				if kind != "dijkstra" {
					if ov := db.RoadOverlayStats(); !ov.Active {
						t.Fatalf("churn should leave the insert counters running: %+v", ov)
					}
				}
				if db.PendingUpdates() == 0 {
					t.Fatal("churn should leave updates pending")
				}

				path := filepath.Join(t.TempDir(), "fold.gpssn")
				if err := db.Snapshot(path); err != nil {
					t.Fatalf("Snapshot under pending deltas: %v", err)
				}

				re, err := OpenSnapshot(path, cfg)
				if err != nil {
					t.Fatalf("OpenSnapshot: %v", err)
				}
				if ov := re.RoadOverlayStats(); ov.Active {
					t.Fatalf("reopened DB should count no insert, got %+v", ov)
				}
				if re.PendingUpdates() != 0 {
					t.Fatalf("reopened DB reports %d pending updates, want 0", re.PendingUpdates())
				}
				mustMatchDB(t, re, db, "snapshot-fold")

				// The fold is not a fork: both sides accept further churn
				// and still agree.
				churnScript(t, db, 1)
				churnScript(t, re, 1)
				mustMatchDB(t, re, db, "snapshot-fold/post-churn")
			})
		}
	}
}
