package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gpssn"
)

// churnWatch counts background maintenance from the outside, from counters
// the facade already exports. A Compact drains the road overlay (the portal
// count falls) and a checkpoint truncates the log (StartLSN advances); both
// are triggered by an update and run one at a time, so looking after every
// op misses none. Only traced runs watch: the three read-locked calls are
// not free.
type churnWatch struct {
	lastPortals  int
	lastStartLSN uint64
	compactions  int
	checkpoints  int
	// queryStall is the longest query that returned while a rebuild was in
	// flight.
	queryStall time.Duration
}

func (c *churnWatch) observe(db *gpssn.DB) {
	if p := db.RoadOverlayStats().Portals; p < c.lastPortals {
		c.compactions++
		c.lastPortals = p
	} else {
		c.lastPortals = p
	}
	if s := db.WALStats().StartLSN; s > c.lastStartLSN {
		if c.lastStartLSN != 0 {
			c.checkpoints++
		}
		c.lastStartLSN = s
	}
}

// ackState is what the DB had acknowledged when it crashed.
type ackState struct {
	Users, POIs, RoadVertices int
	AppliedLSN                uint64
}

func stateOf(db *gpssn.DB) ackState {
	n := db.Network()
	return ackState{Users: n.NumUsers(), POIs: n.NumPOIs(), RoadVertices: n.NumIntersections(), AppliedLSN: db.WALStats().AppliedLSN}
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// crashReport is the outcome of the simulated crash.
type crashReport struct {
	RecoveryS float64
	Replayed  uint64 // WAL records recovery had to replay
	Gate      gateResult
}

// crashAndRecover ends a churn_wal pass: the live DB answers sampled
// queries one last time, its log and checkpoint are copied as they are on
// disk (every acknowledged update was fsynced, the flush policy being
// "always"), and the copy is reopened with the clock running. The
// reopened DB must hold exactly the acknowledged state and answer the
// sampled queries as the live DB did; so must a reference DB that was
// built fresh and fed the same update script.
func (w *workload) crashAndRecover(p *pass, seed int64, workDir string) (crashReport, error) {
	var cr crashReport
	in := p.inst
	for in.db.Maintaining() {
		time.Sleep(time.Millisecond)
	}
	ack := stateOf(in.db)
	sample := sampleQueries(p.ops, replaySamples, seed)
	live := &libTarget{db: in.db}
	want := make([]outcome, len(sample))
	for j, i := range sample {
		want[j] = live.do(&p.ops[i], nil, 0, 0)
	}

	crashDir, err := os.MkdirTemp(workDir, "crash-")
	if err != nil {
		return cr, err
	}
	cfg := in.cfg
	cfg.WALPath = filepath.Join(crashDir, "db.wal")
	if err := copyFile(cfg.WALPath, in.cfg.WALPath); err != nil {
		return cr, err
	}
	if err := copyFile(cfg.WALPath+".ckpt", in.checkpointPath()); err != nil {
		return cr, err
	}

	t0 := time.Now()
	rec, err := gpssn.OpenSnapshot(cfg.WALPath+".ckpt", cfg)
	if err != nil {
		return cr, fmt.Errorf("recovery: %w", err)
	}
	cr.RecoveryS = time.Since(t0).Seconds()
	defer rec.Close()
	st := rec.WALStats()
	cr.Replayed = st.AppliedLSN + 1 - st.StartLSN

	cr.Gate.Checked++
	if got := stateOf(rec); got != ack {
		cr.Gate.fail("recovered state %+v, acknowledged %+v: an acknowledged update is missing", got, ack)
	}
	check := func(name string, db *gpssn.DB) {
		tgt := &libTarget{db: db}
		for j, i := range sample {
			got := tgt.do(&p.ops[i], nil, 0, 0)
			cr.Gate.Checked++
			if got.Err != "" || !sameOutcome(&want[j], &got) {
				cr.Gate.fail("%s DB, op %d (%s user %d %+v): %+v %s, live DB %+v", name, i, p.ops[i].Kind, p.ops[i].User, p.ops[i].Q, got.Answers, got.Err, want[j].Answers)
			}
		}
	}
	check("recovered", rec)

	// The reference twin: same generated base, same update script, no WAL,
	// then rebuilt from scratch over the final dataset.
	netw, err := w.generate()
	if err != nil {
		return cr, err
	}
	ref, err := gpssn.Open(netw, referenceConfig())
	if err != nil {
		return cr, fmt.Errorf("reference DB: %w", err)
	}
	defer ref.Close()
	refT := &libTarget{db: ref}
	for i := range p.allOps {
		if o := &p.allOps[i]; !o.Kind.isQuery() {
			if out := refT.do(o, nil, 0, 0); out.Err != "" {
				return cr, fmt.Errorf("reference DB, replaying update %d: %s", i, out.Err)
			}
		}
	}
	if err := ref.Compact(); err != nil {
		return cr, err
	}
	cr.Gate.Checked++
	if got := stateOf(ref); got.Users != ack.Users || got.POIs != ack.POIs || got.RoadVertices != ack.RoadVertices {
		cr.Gate.fail("reference twin state %+v, acknowledged %+v", got, ack)
	}
	check("reference", ref)
	return cr, nil
}
