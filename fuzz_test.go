package gpssn

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gpssn/internal/wal"
)

// fuzzCSV returns the five readers ImportCSV takes, nil for empty slices
// so the optional-social path is exercised too.
func fuzzCSV(name string, verts, edges, social, users, pois []byte) CSVInput {
	in := CSVInput{
		Name:         name,
		RoadVertices: bytes.NewReader(verts),
		RoadEdges:    bytes.NewReader(edges),
		Users:        bytes.NewReader(users),
		POIs:         bytes.NewReader(pois),
	}
	if len(social) > 0 {
		in.SocialEdges = bytes.NewReader(social)
	}
	return in
}

// FuzzImportCSV asserts the one property importing can promise on hostile
// input: a clean typed error or a dataset that passes validation — never
// a panic, never an invalid network.
func FuzzImportCSV(f *testing.F) {
	f.Add([]byte("0,0,0\n1,1,0\n2,1,1"), []byte("0,1\n1,2"), []byte("0,1"),
		[]byte("0,0.1,0,0.9,0.1\n1,0.9,0,0.8,0.2"), []byte("0,0.5,0,0\n1,0.6,0.5,1"))
	f.Add([]byte("0,NaN,0"), []byte("0,0"), []byte(""), []byte("0,0,0,2.0"), []byte("0,0,0,9"))
	f.Add([]byte("# comment\n0,0,0"), []byte("0,1\n0,1"), []byte("1,1"),
		[]byte("5,0,0,0.5"), []byte("0,0,0,;"))
	f.Add([]byte("0,1e308,1e308\n1,-1e308,0"), []byte("0,1"), []byte{},
		[]byte("0,0,0,1"), []byte("0,0,0,0"))
	f.Fuzz(func(t *testing.T, verts, edges, social, users, pois []byte) {
		net, err := ImportCSV(fuzzCSV("fuzz", verts, edges, social, users, pois))
		if err != nil {
			return
		}
		// An accepted import must be internally consistent enough to
		// re-validate and round-trip through the binary format.
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("accepted network fails to save: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("saved network fails to reload: %v", err)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the full OpenSnapshot path
// (framing, section CRCs, dataset decode, oracle decode + rebuild). The
// property: a typed error or a valid DB — never a panic, never an
// unbounded allocation.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed with a real snapshot and structured damage to it.
	net, err := GenerateSynthetic(SyntheticOptions{
		Seed: 7, RoadVertices: 40, Users: 12, POIs: 10, Topics: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Parallelism = 1
	db, err := Open(net, cfg)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	snapPath := filepath.Join(dir, "seed.snap")
	if err := db.Snapshot(snapPath); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(snapPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("GPSSNAP\x01garbage"))
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "in.snap")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fcfg := DefaultConfig()
		fcfg.Parallelism = 1
		re, err := OpenSnapshot(p, fcfg)
		if err != nil {
			if errors.Is(err, ErrSnapshotCorrupt) {
				return
			}
			// Non-corruption errors must still be clean dataset/build
			// rejections, not panics (reaching here at all means no panic).
			return
		}
		// An accepted snapshot must produce a queryable DB.
		if re.Network().NumUsers() > 0 {
			_, _, qerr := re.Query(0, Query{GroupSize: 1, Gamma: 0, Theta: 0, Radius: 1})
			if qerr != nil && !errors.Is(qerr, ErrNoAnswer) && !errors.Is(qerr, ErrInvalidInput) {
				t.Fatalf("restored DB query failed: %v", qerr)
			}
		}
	})
}

// FuzzReplayRecord feeds an arbitrary record kind and payload to WAL
// replay on a small DB. The property: never a panic, and a refused record
// changes nothing — the user, POI, road vertex and road edge counts stay
// as they were. Each input gets a fresh DB, loaded from the same saved
// network, so a failure reproduces from its input alone.
func FuzzReplayRecord(f *testing.F) {
	net, err := GenerateSynthetic(SyntheticOptions{
		Seed: 5, RoadVertices: 30, Users: 10, POIs: 8, Topics: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := net.Save(&saved); err != nil {
		f.Fatal(err)
	}
	for _, m := range []mutation{
		&addPOI{x: 0.5, y: 0.5, keywords: []int{0, 2}},
		&addPOI{x: 0.5, y: 0.5, keywords: []int{3}},
		&addUser{x: 0.3, y: 0.7, interests: []float64{0.1, 0.5, 1}},
		&addUser{x: 0.3, y: 0.7, interests: []float64{0.5}},
		&addFriendship{a: 0, b: 9},
		&addFriendship{a: 4, b: 4},
		&addRoadVertex{x: 0.2, y: 0.2},
		&addRoadEdge{u: 0, v: 29},
		&addRoadEdge{u: 0, v: 30},
	} {
		kind, payload := m.record()
		f.Add(uint8(kind), payload)
		f.Add(uint8(kind), payload[:len(payload)/2])
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(200), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		n, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.Parallelism = 1
		db, err := Open(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts := func() [4]int {
			ds := db.Network().Dataset()
			return [4]int{len(ds.Users), len(ds.POIs), ds.Road.NumVertices(), ds.Road.NumEdges()}
		}
		before := counts()
		if err := db.replayRecord(wal.Record{LSN: 1, Kind: wal.Kind(kind), Payload: payload}); err != nil {
			if after := counts(); after != before {
				t.Fatalf("refused record (%v) changed the counts %v -> %v", err, before, after)
			}
		}
	})
}
