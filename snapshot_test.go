package gpssn

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gpssn/internal/failpoint"
	"gpssn/internal/snap"
)

// snapQueries is the query set every snapshot equality gate runs.
var snapQueries = []Query{
	{GroupSize: 3, Gamma: 0.3, Theta: 0.4, Radius: 2},
	{GroupSize: 2, Gamma: 0.5, Theta: 0.5, Radius: 1},
	{GroupSize: 4, Gamma: 0.2, Theta: 0.3, Radius: 3},
}

// snapshotOf saves db into a fresh temp file and returns the path.
func snapshotOf(t *testing.T, db *DB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.snap")
	if err := db.Snapshot(path); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return path
}

// openSnap opens a snapshot with the standard test configuration.
func openSnap(t *testing.T, path, oracle string, parallelism int) *DB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.RoadPivots = 4
	cfg.DistanceOracle = oracle
	cfg.Parallelism = parallelism
	db, err := OpenSnapshot(path, cfg)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	return db
}

// requireIdenticalAnswers drives both DBs through the full query set over
// every user and demands bit-identical outcomes — a restored snapshot has
// the same oracle bytes as the saved DB, so unlike cross-oracle equality
// gates there is no 1-ULP tolerance here.
func requireIdenticalAnswers(t *testing.T, want, got *DB, label string) {
	t.Helper()
	for _, q := range snapQueries {
		for user := 0; user < want.Network().NumUsers(); user += 7 {
			a1, _, err1 := want.Query(user, q)
			a2, _, err2 := got.Query(user, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: user %d %+v: err %v vs %v", label, user, q, err1, err2)
			}
			if err1 != nil {
				if !errors.Is(err1, ErrNoAnswer) || !errors.Is(err2, ErrNoAnswer) {
					t.Fatalf("%s: unexpected errors %v / %v", label, err1, err2)
				}
				continue
			}
			if answerKey(a1) != answerKey(a2) || a1.MaxDistance != a2.MaxDistance {
				t.Fatalf("%s: user %d %+v:\n  want %s cost=%v\n  got  %s cost=%v",
					label, user, q, answerKey(a1), a1.MaxDistance, answerKey(a2), a2.MaxDistance)
			}
		}
	}
}

// TestSnapshotRoundTrip is the tentpole equality gate: save, reload, and
// demand bit-identical answers under every oracle at parallelism 1 and 8.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, oracle := range []string{"hl", "ch", "dijkstra"} {
		for _, par := range []int{1, 8} {
			t.Run(oracle, func(t *testing.T) {
				db := openWithOracle(t, 1, false, oracle, par)
				re := openSnap(t, snapshotOf(t, db), oracle, par)
				if h := re.Health(); h.Degraded || len(h.Notes) != 0 {
					t.Fatalf("clean restore reported degraded health: %+v", h)
				}
				if h := re.Health(); h.OracleActive != oracle {
					t.Fatalf("restored oracle %q, want %q", h.OracleActive, oracle)
				}
				requireIdenticalAnswers(t, db, re, oracle)
			})
		}
	}
}

// TestSnapshotSectionsPerOracle pins what a snapshot holds: the dataset,
// the WAL checkpoint and the one oracle section of the DB's own oracle —
// an hl snapshot's labels stand alone, with no CH beside them.
func TestSnapshotSectionsPerOracle(t *testing.T) {
	want := map[string][]string{
		"hl":       {secDataset, secWAL, secHL},
		"ch":       {secDataset, secWAL, secCH},
		"dijkstra": {secDataset, secWAL},
	}
	for oracle, tags := range want {
		f, err := os.Open(snapshotOf(t, openWithOracle(t, 1, false, oracle, 1)))
		if err != nil {
			t.Fatal(err)
		}
		secs, err := snap.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", oracle, err)
		}
		var got []string
		for _, sec := range secs {
			got = append(got, sec.Tag)
		}
		if !slices.Equal(got, tags) {
			t.Errorf("%s snapshot sections %v, want %v", oracle, got, tags)
		}
	}
}

// TestSnapshotCrossOracleRestore opens an hl-written snapshot as ch (its
// labels stand alone, so the CH is absent → rebuilt, noted in Health), and
// a ch-written snapshot as hl (labels absent → rebuilt, noted in Health).
func TestSnapshotCrossOracleRestore(t *testing.T) {
	hlDB := openWithOracle(t, 1, false, "hl", 1)
	path := snapshotOf(t, hlDB)

	chDB := openSnap(t, path, "ch", 1)
	if h := chDB.Health(); h.OracleActive != "ch" || h.Degraded {
		t.Fatalf("ch restore health: %+v", h)
	}
	if len(chDB.Health().Notes) == 0 {
		t.Fatal("rebuilding the CH absent from an hl snapshot left no Health note")
	}
	baseline := openWithOracle(t, 1, false, "ch", 1)
	requireIdenticalAnswers(t, baseline, chDB, "hl-snapshot-as-ch")

	chOnly := openWithOracle(t, 1, false, "ch", 1)
	path2 := snapshotOf(t, chOnly)
	hlRe, err := OpenSnapshot(path2, func() Config {
		c := DefaultConfig()
		c.Seed = 1
		c.RoadPivots = 4
		c.DistanceOracle = "hl"
		c.Parallelism = 1
		return c
	}())
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	h := hlRe.Health()
	if h.OracleActive != "hl" || h.Degraded {
		t.Fatalf("hl rebuild health: %+v", h)
	}
	if len(h.Notes) == 0 {
		t.Fatal("rebuilding absent HL labels left no Health note")
	}
	requireIdenticalAnswers(t, hlDB, hlRe, "ch-snapshot-as-hl")
}

// TestSnapshotCorruptionMatrix damages each oracle section every way the
// failpoint layer can (I/O error, torn write, bit flip) and requires: no
// panic, open succeeds, the damage is noted in Health, and the recovered
// DB answers exactly like a cleanly-built baseline. Each section is
// damaged in the snapshot of the oracle that writes it: CHOR in a ch
// one, HLBL in an hl one.
func TestSnapshotCorruptionMatrix(t *testing.T) {
	baselines := map[string]*DB{
		"ch": openWithOracle(t, 1, false, "ch", 1),
		"hl": openWithOracle(t, 1, false, "hl", 1),
	}
	cases := []struct {
		name   string
		oracle string
		site   string
		f      failpoint.Failure
	}{
		{"torn-ch", "ch", "snap.section." + secCH, failpoint.Failure{Mode: failpoint.ModeShortWrite, N: 40}},
		{"torn-hl", "hl", "snap.section." + secHL, failpoint.Failure{Mode: failpoint.ModeShortWrite, N: 11}},
		{"bitflip-ch", "ch", "snap.section." + secCH, failpoint.Failure{Mode: failpoint.ModeBitFlip, N: 1337}},
		{"bitflip-hl", "hl", "snap.section." + secHL, failpoint.Failure{Mode: failpoint.ModeBitFlip, N: 4242}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer failpoint.Reset()
			db := openWithOracle(t, 1, false, tc.oracle, 1)
			failpoint.Arm(tc.site, tc.f)
			path := snapshotOf(t, db)
			failpoint.Reset()

			re := openSnap(t, path, tc.oracle, 1)
			h := re.Health()
			if len(h.Notes) == 0 {
				t.Fatalf("%s: damaged snapshot recovered without a Health note", tc.name)
			}
			if h.OracleActive != tc.oracle {
				t.Fatalf("%s: recovery ended on %q, want rebuilt %s", tc.name, h.OracleActive, tc.oracle)
			}
			requireIdenticalAnswers(t, baselines[tc.oracle], re, tc.name)
		})
	}
}

// TestSnapshotDatasetDamageIsFatal verifies the unrecoverable domain: a
// snapshot whose dataset section is torn or flipped fails typed — never a
// panic, never a silently-empty DB.
func TestSnapshotDatasetDamageIsFatal(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    failpoint.Failure
	}{
		{"torn", failpoint.Failure{Mode: failpoint.ModeShortWrite, N: 100}},
		{"bitflip", failpoint.Failure{Mode: failpoint.ModeBitFlip, N: 999}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer failpoint.Reset()
			db := openWithOracle(t, 1, false, "ch", 1)
			failpoint.Arm("snap.section."+secDataset, tc.f)
			path := snapshotOf(t, db)
			failpoint.Reset()

			_, err := OpenSnapshot(path, DefaultConfig())
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("%s dataset damage: err = %v, want ErrSnapshotCorrupt", tc.name, err)
			}
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *SnapshotError", err)
			}
		})
	}
}

// TestSnapshotTruncationMatrix cuts the snapshot file at a spread of
// lengths. Every cut must either open (rebuilding what was lost, equal to
// baseline) or fail with ErrSnapshotCorrupt — never panic.
func TestSnapshotTruncationMatrix(t *testing.T) {
	db := openWithOracle(t, 1, false, "hl", 1)
	path := snapshotOf(t, db)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, 7, 8, 11, 20, len(full) / 2, len(full) - 9, len(full) - 1}
	for step := 31; step < len(full); step += 977 {
		cuts = append(cuts, step)
	}
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.RoadPivots = 4
	cfg.Parallelism = 1
	opened := 0
	for _, cut := range cuts {
		if cut > len(full) {
			continue
		}
		p := filepath.Join(t.TempDir(), "cut.snap")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSnapshot(p, cfg)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("cut=%d: err = %v, want ErrSnapshotCorrupt", cut, err)
			}
			continue
		}
		opened++
		requireIdenticalAnswers(t, db, re, "truncated")
	}
	// The full file must of course open; shorter prefixes mostly fail.
	re, err := OpenSnapshot(path, cfg)
	if err != nil {
		t.Fatalf("untruncated file failed: %v", err)
	}
	requireIdenticalAnswers(t, db, re, "full")
	t.Logf("%d/%d truncated prefixes were recoverable", opened, len(cuts))
}

// TestSnapshotWriteFailpoints proves the crash-safe write discipline: an
// injected failure at any stage (temp creation, section write, fsync,
// rename) errors out, leaves a previously-written snapshot untouched, and
// litters no temp files.
func TestSnapshotWriteFailpoints(t *testing.T) {
	db := openWithOracle(t, 1, false, "ch", 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "net.snap")
	if err := db.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected io failure")
	sites := []string{
		"snapshot.create", "snap.section." + secDataset, "snap.section." + secCH,
		"snapshot.sync", "snapshot.rename",
	}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			defer failpoint.Reset()
			failpoint.Arm(site, failpoint.Failure{Mode: failpoint.ModeError, Err: boom})
			if err := db.Snapshot(path); !errors.Is(err, boom) {
				t.Fatalf("Snapshot with %s armed: err = %v, want injected failure", site, err)
			}
			failpoint.Reset()
			after, err := os.ReadFile(path)
			if err != nil || string(after) != string(good) {
				t.Fatalf("failed snapshot damaged the existing file (err=%v)", err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				t.Fatalf("temp files littered after failure: %v", ents)
			}
		})
	}
}

// TestOpenSnapshotMissingFile keeps plain I/O errors out of the
// corruption taxonomy.
func TestOpenSnapshotMissingFile(t *testing.T) {
	_, err := OpenSnapshot(filepath.Join(t.TempDir(), "absent.snap"), DefaultConfig())
	if err == nil || errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("missing file: err = %v, want a plain I/O error", err)
	}
}
