package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedLog builds a healthy three-record log and returns its raw bytes,
// the base every fuzz mutation starts from.
func fuzzSeedLog(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.wal")
	l, _, err := Open(path, 1, Options{Sync: SyncNone})
	if err != nil {
		tb.Fatal(err)
	}
	for i, k := range []Kind{KindAddPOI, KindAddRoadEdge, KindAddUser} {
		if _, err := l.Append(k, []byte{byte(i), 0xAB, byte(i * 7)}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzWALReplay feeds arbitrary bytes to the replay path. The contract:
// Open never panics; it either reports mid-log damage as a *CorruptError
// (errors.Is ErrCorrupt) or recovers a usable log — and a recovered log
// must really be usable: the file was physically repaired, so a reopen
// yields the identical record sequence, and appends continue from the
// recovered LSN.
func FuzzWALReplay(f *testing.F) {
	seed := fuzzSeedLog(f)
	f.Add(seed)
	f.Add(seed[:0])           // empty file
	f.Add(seed[:headerLen-3]) // torn header
	f.Add(seed[:headerLen])   // empty log
	f.Add(seed[:headerLen+2]) // torn length prefix
	f.Add(seed[:len(seed)-5]) // torn tail
	flip := append([]byte(nil), seed...)
	flip[headerLen+6] ^= 0x40 // corrupt first record
	f.Add(flip)
	badMagic := append([]byte(nil), seed...)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)
	badVer := append([]byte(nil), seed...)
	badVer[7] = 99
	f.Add(badVer)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, 1, Options{Sync: SyncNone})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open returned a non-corruption error for byte salad: %v", err)
			}
			return
		}
		start, last := l.StartLSN(), l.LastLSN()
		if uint64(len(recs)) != last+1-start {
			t.Fatalf("recovered %d records but LSN range is [%d,%d]", len(recs), start, last)
		}
		for i, r := range recs {
			if r.LSN != start+uint64(i) {
				t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, start+uint64(i))
			}
			if !r.Kind.Valid() {
				t.Fatalf("record %d has invalid kind %d", i, r.Kind)
			}
		}
		if _, err := l.Append(KindAddPOI, []byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen: recovery repaired the file in place, so the second pass
		// sees a clean log — the same records plus the new tail.
		l2, recs2, err := Open(path, 1, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("reopen of a recovered log failed: %v", err)
		}
		defer l2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen found %d records, want %d", len(recs2), len(recs)+1)
		}
		for i, r := range recs {
			if recs2[i].LSN != r.LSN || recs2[i].Kind != r.Kind || string(recs2[i].Payload) != string(r.Payload) {
				t.Fatalf("record %d changed across reopen: %+v vs %+v", i, recs2[i], r)
			}
		}
	})
}
