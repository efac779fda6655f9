package gpssn

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpssn/internal/failpoint"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/snap"
)

// Snapshots persist a built DB — dataset plus the expensive derived
// distance oracle it runs — into a single file, so reopening skips the
// contraction-hierarchy or hub-label preprocessing. The format
// (docs/ROBUSTNESS.md) is a magic+version header followed by
// length-prefixed, CRC64-checksummed sections: the dataset, the WAL
// checkpoint, then the attached oracle's own section — CHOR for a CH,
// HLBL for hub labels, which stand alone — prefixed with a fingerprint of
// the road topology it answers for. Sections are independent failure domains:
// damage to an oracle section is repaired by rebuilding that oracle from
// the dataset (reported via Health, not an error), while a snapshot whose
// header or dataset section is unusable fails with ErrSnapshotCorrupt —
// there is nothing left to rebuild from.

// Snapshot section tags.
const (
	secDataset = "DSET"
	secCH      = "CHOR"
	secHL      = "HLBL"
	// secWAL is the checkpoint marker: the u64 LSN of the newest WAL
	// record whose effect this snapshot contains. OpenSnapshot replays
	// only records past it, so a crash landing between the snapshot
	// rename and the log truncation cannot double-apply (snapshots
	// written before the WAL existed simply lack the section: LSN 0).
	secWAL = "WALM"
)

// SnapshotError is the concrete error behind ErrSnapshotCorrupt: detected
// damage in the one part of a snapshot that cannot be rebuilt.
type SnapshotError struct {
	// Path is the snapshot file.
	Path string
	// Section is the damaged section tag, or "head" for the file header.
	Section string
	// Reason describes the detected damage.
	Reason string
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("gpssn: snapshot %s: section %q corrupt: %s", e.Path, e.Section, e.Reason)
}

// Unwrap makes errors.Is(err, ErrSnapshotCorrupt) match.
func (e *SnapshotError) Unwrap() error { return ErrSnapshotCorrupt }

// roadFingerprint identifies the exact road topology an oracle answers
// for. Oracle sections carry it so a snapshot whose oracle was built for
// a different graph (a version-skewed or hand-edited file) is detected as
// stale and rebuilt instead of serving wrong distances.
func roadFingerprint(g *roadnet.Graph) uint64 {
	var e snap.Enc
	e.U32(uint32(g.NumVertices()))
	e.U32(uint32(g.NumEdges()))
	for v := 0; v < g.NumVertices(); v++ {
		p := g.Vertex(roadnet.VertexID(v))
		e.F64(p.X)
		e.F64(p.Y)
	}
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.EdgeAt(roadnet.EdgeID(i))
		e.U32(uint32(ed.U))
		e.U32(uint32(ed.V))
	}
	return snap.Checksum(e.B)
}

// Snapshot writes the DB — dataset and whichever oracles are attached —
// to path, crash-safely: everything is serialized into a temp file in the
// destination directory, fsynced, and atomically renamed over path, so a
// crash at any point leaves either the old file or the new one, never a
// half-written hybrid. Concurrent queries keep running (Snapshot holds
// the read lock); dynamic updates block until it finishes.
//
// Snapshot is also the WAL checkpoint: when the DB has a write-ahead log
// attached, the snapshot records the applied LSN (secWAL) and, once the
// rename has made it durable, truncates the log — every logged record is
// now redundant with the file. A crash between the rename and the
// truncation is benign: replay skips records at or below the recorded
// LSN.
//
// Pending dynamic updates fold into the snapshot by construction: the
// dataset section serializes the *current* network — delta POIs, users,
// friendships, road vertices and edges included — and the attached
// oracle answers for exactly that topology: hub labels follow road
// inserts in place and are written with them, and a CH a new edge has
// detached writes no section, so reopening rebuilds it from the folded
// dataset. snapshot_fold_test.go gates that a post-churn snapshot→reopen
// answers bit-identically to the live DB.
func (db *DB) Snapshot(path string) (err error) {
	if err := db.rlock(); err != nil {
		return err
	}
	defer db.runlock()

	// Serialize fully in memory first: nothing touches the filesystem
	// until every byte that will be written is known good.
	var dsBuf bytes.Buffer
	if err := db.net.ds.Save(&dsBuf); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	// The checkpoint LSN: mutations are blocked for the whole RLock, so
	// this is exactly the newest update dsBuf contains.
	applied := db.appliedLSN
	fp := roadFingerprint(db.net.ds.Road)
	var oracleTag string
	var oracle snap.Enc
	oracle.U64(fp)
	switch o := db.net.ds.Road.Oracle().(type) {
	case *hl.Oracle:
		oracleTag = secHL
		o.Encode(&oracle)
	case *ch.Oracle:
		oracleTag = secCH
		o.Encode(&oracle)
	}
	if err := oracle.Err(); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}

	if err := failpoint.Error("snapshot.create"); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".gpssn-snap-*")
	if err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	w, err := snap.NewWriter(bw)
	if err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	if err = w.Section(secDataset, dsBuf.Bytes()); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	var ew snap.Enc
	ew.U64(applied)
	if err = w.Section(secWAL, ew.B); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	if oracleTag != "" {
		if err = w.Section(oracleTag, oracle.B); err != nil {
			return fmt.Errorf("gpssn: snapshot: %w", err)
		}
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	if err = failpoint.Error("snapshot.sync"); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	if err = failpoint.Error("snapshot.rename"); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("gpssn: snapshot: %w", err)
	}
	syncDir(dir)
	// The snapshot is durable; the log's records up to the checkpoint LSN
	// are now redundant. A failure here leaves a perfectly good snapshot
	// and an oversized log — replay skips the duplicated records — so the
	// error reports a degraded checkpoint, not a failed snapshot.
	if db.wal != nil {
		if cerr := db.wal.Checkpoint(applied); cerr != nil {
			return fmt.Errorf("gpssn: snapshot %s written, but truncating the wal failed: %w", path, cerr)
		}
	}
	return nil
}

// syncDir fsyncs a directory so the rename itself is durable. Best
// effort: some filesystems refuse directory syncs, and the rename is
// already atomic for crash-consistency purposes.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// OpenSnapshot opens a DB from a snapshot written by Snapshot. Detected
// damage is handled by failure domain: a file whose header or dataset
// section is unusable fails with an error matching ErrSnapshotCorrupt,
// while damaged, stale, or missing oracle sections are rebuilt from the
// restored dataset — the open succeeds and Health().Notes records what
// was recovered. A cleanly-restored DB answers bit-identically to the DB
// that was saved.
func OpenSnapshot(path string, cfg Config) (*DB, error) {
	c := cfg.withDefaults()
	start := time.Now()

	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gpssn: open snapshot: %w", err)
	}
	secs, readErr := snap.Read(bufio.NewReader(f))
	f.Close()
	byTag := map[string][]byte{}
	for _, s := range secs {
		byTag[s.Tag] = s.Payload
	}
	var notes []string
	if readErr != nil {
		var ce *snap.CorruptError
		if !errors.As(readErr, &ce) {
			return nil, fmt.Errorf("gpssn: read snapshot: %w", readErr)
		}
		// Damage in the header or the dataset section is unrecoverable;
		// damage confined to oracle sections is repaired below. The
		// checkpoint-LSN section is unrecoverable too: replaying a WAL
		// from a guessed LSN could double-apply acknowledged updates.
		if ce.Section == "head" || ce.Section == secWAL || byTag[secDataset] == nil {
			return nil, &SnapshotError{Path: path, Section: ce.Section, Reason: ce.Reason}
		}
		notes = append(notes, fmt.Sprintf("section %q corrupt (%s); rebuilding derived data", ce.Section, ce.Reason))
	}
	dsBytes, ok := byTag[secDataset]
	if !ok {
		return nil, &SnapshotError{Path: path, Section: secDataset, Reason: "section missing"}
	}
	ds, err := model.Load(bytes.NewReader(dsBytes))
	if err != nil {
		return nil, &SnapshotError{Path: path, Section: secDataset, Reason: err.Error()}
	}
	net := &Network{ds: ds}
	fp := roadFingerprint(ds.Road)

	// Restore the requested oracle from its sections when possible; any
	// failure — missing section, stale fingerprint, decode error — falls
	// back to rebuilding from the dataset via the regular fallback chain.
	health := Health{OracleRequested: c.DistanceOracle}
	attached := false
	var restored roadnet.DistanceOracle
	switch c.DistanceOracle {
	case "hl":
		if o := decodeOracleSection(byTag[secHL], "HL", fp, hl.Decode, &notes); o != nil {
			restored = o
		}
	case "ch":
		if o := decodeOracleSection(byTag[secCH], "CH", fp, ch.Decode, &notes); o != nil {
			restored = o
		}
	}
	if restored != nil {
		ds.Road.SetDistanceOracle(restored)
		health.OracleActive = c.DistanceOracle
		attached = true
	}
	if !attached {
		health, err = attachOracle(net, c)
		if err != nil {
			return nil, err
		}
	}
	health.Notes = append(notes, health.Notes...)
	for _, n := range notes {
		c.logf("gpssn: snapshot %s: %s", path, n)
	}

	db, err := buildDB(net, c)
	if err != nil {
		return nil, err
	}
	db.health = health
	net.dbs = 1 // the network is this DB's alone

	// The checkpoint LSN this snapshot was cut at (0 for snapshots from
	// before the WAL existed, or written without one). With a WAL
	// configured, replay brings the restored state forward from there.
	var base uint64
	if wp := byTag[secWAL]; wp != nil {
		d := &snap.Dec{B: wp}
		base = d.U64()
		if d.Err() != nil || !d.Done() {
			return nil, &SnapshotError{Path: path, Section: secWAL, Reason: "malformed checkpoint LSN"}
		}
	}
	if c.WALPath != "" {
		if err := db.openWAL(c, base); err != nil {
			return nil, err
		}
	} else {
		db.appliedLSN = base
	}
	db.BuildTime = time.Since(start)
	return db, nil
}

// decodeOracleSection restores an oracle from its section (name is "CH"
// or "HL" for the notes), or returns nil (with a note) when the section is
// absent — as a CH section is from an hl snapshot — stale, or does not
// decode to a structurally valid oracle.
func decodeOracleSection[T any](payload []byte, name string, fp uint64, decode func(*snap.Dec) (*T, error), notes *[]string) *T {
	if payload == nil {
		*notes = append(*notes, fmt.Sprintf("no %s section; rebuilding oracle from dataset", name))
		return nil
	}
	d := &snap.Dec{B: payload}
	if got := d.U64(); got != fp {
		*notes = append(*notes, fmt.Sprintf("%s section was built for a different road graph; rebuilding", name))
		return nil
	}
	o, err := decode(d)
	if err == nil && !d.Done() {
		err = fmt.Errorf("trailing bytes after oracle payload")
	}
	if err != nil {
		*notes = append(*notes, fmt.Sprintf("%s section invalid (%v); rebuilding", name, err))
		return nil
	}
	return o
}
