package gpssn

import (
	"errors"
	"fmt"

	"gpssn/internal/snap"
	"gpssn/internal/wal"
)

// Durability: when Config.WALPath is set, commit (dynamic.go) appends
// every update that passed its check to the log as one record — fsynced
// per Config.WALSync — *before* applying it, under the same db.upd/db.mu
// critical section, so LSN order is apply order; a rejected update never
// reaches the log. Open and OpenSnapshot replay the surviving log on top
// of the loaded base state: each record is decoded into the mutation it
// was made from and committed again, through the same check and apply.
// Because a record stores the mutation's *inputs* and every apply is
// deterministic given the state it runs against, replay in LSN order
// reconstructs the exact pre-crash state — gated bit-identical against a
// never-crashed twin by the crash matrix in wal_crash_test.go. Snapshot
// doubles as the checkpoint: it persists the applied LSN, then truncates
// the log. docs/ROBUSTNESS.md §8 is the full contract.

// Record payloads reuse the snapshot codec (little-endian, length-prefixed
// slices) and store exactly the public mutation's arguments; derived
// state (snapped locations, assigned ids, label updates) is recomputed
// on replay, not trusted from disk. The bytes of each kind are pinned by
// TestWALRecordGolden: logs written by earlier versions must still replay.

func (m *addPOI) record() (wal.Kind, []byte) {
	var e snap.Enc
	e.F64(m.x)
	e.F64(m.y)
	ks := make([]int32, len(m.keywords))
	for i, k := range m.keywords {
		ks[i] = int32(k)
	}
	e.I32s(ks)
	return wal.KindAddPOI, e.B
}

func (m *addUser) record() (wal.Kind, []byte) {
	var e snap.Enc
	e.F64(m.x)
	e.F64(m.y)
	e.F64s(m.interests)
	return wal.KindAddUser, e.B
}

func (m *addFriendship) record() (wal.Kind, []byte) {
	return wal.KindAddFriendship, encodePair(m.a, m.b)
}

func (m *addRoadVertex) record() (wal.Kind, []byte) {
	var e snap.Enc
	e.F64(m.x)
	e.F64(m.y)
	return wal.KindAddRoadVertex, e.B
}

func (m *addRoadEdge) record() (wal.Kind, []byte) {
	return wal.KindAddRoadEdge, encodePair(m.u, m.v)
}

func encodePair(a, b int) []byte {
	var e snap.Enc
	e.U64(uint64(a))
	e.U64(uint64(b))
	return e.B
}

// decodeMutation is the inverse of record: the mutation a record of this
// kind and payload was made from.
func decodeMutation(kind wal.Kind, payload []byte) (mutation, error) {
	d := &snap.Dec{B: payload}
	var m mutation
	switch kind {
	case wal.KindAddPOI:
		x, y, ks := d.F64(), d.F64(), d.I32s()
		keywords := make([]int, len(ks))
		for i, k := range ks {
			keywords[i] = int(k)
		}
		m = &addPOI{x: x, y: y, keywords: keywords}
	case wal.KindAddUser:
		x, y := d.F64(), d.F64()
		m = &addUser{x: x, y: y, interests: d.F64s()}
	case wal.KindAddFriendship:
		a, b := d.U64(), d.U64()
		m = &addFriendship{a: int(a), b: int(b)}
	case wal.KindAddRoadVertex:
		x, y := d.F64(), d.F64()
		m = &addRoadVertex{x: x, y: y}
	case wal.KindAddRoadEdge:
		u, v := d.U64(), d.U64()
		m = &addRoadEdge{u: int(u), v: int(v)}
	default:
		return nil, fmt.Errorf("unknown record kind %d", kind)
	}
	if err := payloadErr(d); err != nil {
		return nil, err
	}
	return m, nil
}

// payloadErr finishes a payload decode: a decoder error or trailing bytes
// mean the record body — though its checksum passed — is not a payload
// this version wrote.
func payloadErr(d *snap.Dec) error {
	if err := d.Err(); err != nil {
		return err
	}
	if !d.Done() {
		return fmt.Errorf("trailing bytes after payload")
	}
	return nil
}

// openWAL opens (or creates) the log at c.WALPath against a base state
// whose applied LSN is base, replays every surviving record past base
// onto db, and attaches the log for subsequent appends. Called by
// Open/OpenSnapshot before the DB is published, so no locking.
func (db *DB) openWAL(c Config, base uint64) error {
	pol, err := wal.ParseSyncPolicy(c.WALSync)
	if err != nil {
		return invalidf("%v", err)
	}
	l, recs, err := wal.Open(c.WALPath, base+1, wal.Options{Sync: pol, FlushWindow: c.WALFlushWindow})
	if err != nil {
		return walErr(err)
	}
	if st := l.StartLSN(); st > base+1 {
		l.Close()
		return &WALError{Path: c.WALPath, LSN: base,
			Reason: fmt.Sprintf("log starts at LSN %d but the base state is at LSN %d; open the checkpoint this log pairs with", st, base)}
	}
	applied, replayed := base, 0
	for _, rec := range recs {
		if rec.LSN <= base {
			// The checkpoint already holds this record: a crash landed
			// between the snapshot rename and the log truncation.
			continue
		}
		if err := db.replayRecord(rec); err != nil {
			l.Close()
			if errors.Is(err, ErrSharedNetwork) {
				return err
			}
			return &WALError{Path: c.WALPath, LSN: rec.LSN,
				Reason: fmt.Sprintf("replaying %s: %v (log does not pair with this base state?)", rec.Kind, err)}
		}
		applied = rec.LSN
		replayed++
	}
	if st := l.Stats(); replayed > 0 || st.TornBytesDropped > 0 {
		note := fmt.Sprintf("wal: replayed %d update(s) to LSN %d", replayed, applied)
		if st.TornBytesDropped > 0 {
			note += fmt.Sprintf("; dropped %d-byte torn tail", st.TornBytesDropped)
		}
		db.health.Notes = append(db.health.Notes, note)
		c.logf("gpssn: %s", note)
	}
	db.wal = l
	db.appliedLSN = applied
	return nil
}

// replayRecord re-runs one logged mutation through commit, the path the
// original call took. Any failure means the log and the base state do not
// belong together.
func (db *DB) replayRecord(rec wal.Record) error {
	m, err := decodeMutation(rec.Kind, rec.Payload)
	if err != nil {
		return err
	}
	_, err = db.commit(m)
	return err
}

// walAppend frames and appends one record ahead of its apply. Called with
// db.mu held exclusively. With no WAL attached it is a no-op returning
// lsn 0.
func (db *DB) walAppend(kind wal.Kind, payload []byte) (uint64, error) {
	if db.wal == nil {
		return 0, nil
	}
	lsn, err := db.wal.Append(kind, payload)
	if err != nil {
		return 0, fmt.Errorf("gpssn: wal: %w", err)
	}
	return lsn, nil
}

// walCommit marks one appended record applied. Called with db.mu held
// exclusively, after the apply step succeeded.
func (db *DB) walCommit(lsn uint64) {
	if db.wal != nil {
		db.appliedLSN = lsn
	}
}

// walRollback physically undoes the most recent append after its apply
// step failed, so the log never replays a mutation the live DB rejected.
// Rollback can itself fail (the log is poisoned as a crash would leave
// it); the apply error is what the caller reports either way, with the
// rollback failure recorded as a health note.
func (db *DB) walRollback(lsn uint64) {
	if db.wal == nil {
		return
	}
	if err := db.wal.Rollback(lsn); err != nil {
		db.health.Notes = append(db.health.Notes,
			fmt.Sprintf("wal: rollback of LSN %d failed (%v); log needs recovery on next open", lsn, err))
	}
}

// WALStats is an observable snapshot of the attached write-ahead log:
// the LSN window the file covers, the applied LSN, pending (logged but
// not yet checkpointed) record count, and lifetime append/fsync counters.
// Enabled is false — and everything else zero — when the DB was opened
// without Config.WALPath. gpssn-serve surfaces it under /statsz.
type WALStats struct {
	Enabled bool
	// Path and Sync echo the configuration.
	Path string
	Sync string
	// StartLSN/LastLSN bound the records the file currently holds;
	// AppliedLSN is the newest record applied to the in-memory state.
	StartLSN, LastLSN, AppliedLSN uint64
	// Pending is the record count awaiting the next checkpoint; Bytes the
	// file size. Auto-checkpoint triggers on Bytes (Config.WALAutoCheckpointBytes).
	Pending, Bytes int64
	// Appends and Fsyncs count this process's lifetime log activity.
	Appends, Fsyncs int64
	// TornBytesDropped is the torn tail discarded at open (0 = clean).
	TornBytesDropped int64
}

// WALStats snapshots the write-ahead log counters. Safe for concurrent
// use.
func (db *DB) WALStats() WALStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return WALStats{}
	}
	st := db.wal.Stats()
	return WALStats{
		Enabled:          true,
		Path:             st.Path,
		Sync:             st.Sync,
		StartLSN:         st.StartLSN,
		LastLSN:          st.LastLSN,
		AppliedLSN:       db.appliedLSN,
		Pending:          st.Records,
		Bytes:            st.Bytes,
		Appends:          st.Appends,
		Fsyncs:           st.Fsyncs,
		TornBytesDropped: st.TornBytesDropped,
	}
}

// Checkpoint makes the log's records redundant by snapshotting the full
// state to path and truncating the log: exactly Snapshot, which already
// performs the checkpoint protocol when a WAL is attached. Named here so
// the serving lifecycle (drain → checkpoint → exit) reads as what it is.
func (db *DB) Checkpoint(path string) error { return db.Snapshot(path) }

// Close shuts down the DB's background half: it waits out any in-flight
// auto-maintenance pass, permanently disables further ones, and closes
// the write-ahead log (flushing outstanding batched appends), and the DB
// stops counting as open over its network. After Close, updates and
// Compact fail with ErrSharedNetwork; queries and Snapshot work while no
// other DB is open over the network and none has changed it. Idempotent.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	// Acquiring the maintenance token waits for an in-flight pass (it may
	// be about to checkpoint the very log being closed); never releasing
	// it keeps any future pass from starting.
	db.maintTok <- struct{}{}

	db.upd.Lock()
	defer db.upd.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closedGen = db.net.release()
	db.released = true
	if db.wal == nil {
		return nil
	}
	if err := db.wal.Close(); err != nil {
		return fmt.Errorf("gpssn: wal: %w", err)
	}
	return nil
}

// maybeMaintain runs after every successful mutation, outside both locks:
// it checks the auto-maintenance triggers and, at most one at a time,
// runs the needed work in the background so the mutating caller never
// blocks on a re-contraction or a checkpoint.
//
//   - Config.OverlayCompactPortals: when the road insert count Portals
//     (RoadOverlayStats) crosses the bound, Compact rebuilds the indexes
//     and re-minimises the hub labels the inserts grew.
//   - Config.WALAutoCheckpointBytes: when the log outgrows the bound, a
//     checkpoint to Config.CheckpointPath absorbs it and truncates.
//
// A Compact triggered here is followed by a checkpoint when a WAL is
// attached: the rebuild proves the full state is reconstructible, and the
// checkpoint makes that durable so the log shrinks too.
func (db *DB) maybeMaintain() {
	needCompact := db.cfg.OverlayCompactPortals > 0 &&
		db.RoadOverlayStats().Portals > db.cfg.OverlayCompactPortals
	needCkpt := db.cfg.WALAutoCheckpointBytes > 0 && db.cfg.CheckpointPath != "" &&
		db.walSize() > db.cfg.WALAutoCheckpointBytes
	if !needCompact && !needCkpt {
		return
	}
	if db.closed.Load() {
		return
	}
	select {
	case db.maintTok <- struct{}{}:
	default:
		return // one maintenance pass at a time; the next mutation re-checks
	}
	db.maintaining.Store(true)
	go func() {
		defer func() {
			db.maintaining.Store(false)
			<-db.maintTok
		}()
		if needCompact {
			if err := db.Compact(); err == nil && db.cfg.CheckpointPath != "" && db.walSize() > 0 {
				needCkpt = true
			}
		}
		if needCkpt {
			if err := db.Snapshot(db.cfg.CheckpointPath); err != nil {
				db.mu.Lock()
				db.health.Notes = append(db.health.Notes,
					fmt.Sprintf("auto-checkpoint to %s failed (%v); will retry on the next trigger", db.cfg.CheckpointPath, err))
				db.mu.Unlock()
				db.cfg.logf("gpssn: auto-checkpoint failed: %v", err)
			}
		}
	}()
}

// walSize reads the log size without assuming any DB lock.
func (db *DB) walSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Size()
}

// Maintaining reports whether a background auto-maintenance pass
// (auto-Compact or auto-checkpoint) is in flight. Tests and the serving
// layer use it to wait for an auto-Compact to finish.
func (db *DB) Maintaining() bool { return db.maintaining.Load() }
