// Command gpssn-serve is a long-running HTTP/JSON GP-SSN query server: it
// loads a dataset (or a prebuilt snapshot, skipping index construction),
// then serves queries with per-request deadlines and budgets, request
// coalescing, bounded-in-flight admission control with load shedding, and
// a graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	gpssn-serve -data uni.gpssn -addr :8080
//	gpssn-serve -snapshot uni.snap -max-inflight 64 -default-timeout 2s
//
//	curl localhost:8080/healthz
//	curl -d '{"user":42,"group_size":5,"gamma":0.5,"theta":0.5,"radius":2}' \
//	     localhost:8080/v1/query
//
// Every endpoint, status code, and tuning knob is documented in
// docs/SERVING.md, the operator's handbook.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpssn"
	"gpssn/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		data     = flag.String("data", "", "dataset file from gpssn-gen (this or -snapshot is required)")
		snapIn   = flag.String("snapshot", "", "open a DB snapshot written by gpssn-query -save-snapshot instead of -data")
		oracle   = flag.String("oracle", "hl", "distance oracle: hl, ch or dijkstra (falls back down the chain unless -strict-oracle)")
		strict   = flag.Bool("strict-oracle", false, "fail startup when the requested oracle cannot be built, instead of serving degraded")
		cache    = flag.Int("cache", 4096, "answer-cache entries (0 disables caching)")
		par      = flag.Int("parallelism", 0, "refinement workers per query (0 = all CPUs)")
		inflight = flag.Int("max-inflight", 128, "admission control: max concurrently executing queries; beyond it requests are shed with 429")
		defTO    = flag.Duration("default-timeout", 5*time.Second, "deadline for requests that carry no timeout_ms (0 = none)")
		maxTO    = flag.Duration("max-timeout", 30*time.Second, "cap on every request's effective deadline (0 = none)")
		retry    = flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before exiting anyway")
		walPath  = flag.String("wal", "", "write-ahead log path: every accepted update is durable before it is acknowledged, and a crash replays the log on restart (see docs/ROBUSTNESS.md)")
		walSync  = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync per update), batch (group commit, see -wal-flush), none (OS page cache only)")
		walFlush = flag.Duration("wal-flush", 0, "group-commit window for -wal-sync batch (0 = the library default)")
		walAuto  = flag.Int64("wal-auto-checkpoint-bytes", 64<<20, "checkpoint in the background once the log exceeds this many bytes (0 disables)")
		ckptPath = flag.String("checkpoint", "", "checkpoint snapshot path for auto- and shutdown checkpoints (default: <wal>.ckpt)")
		portals  = flag.Int("overlay-compact-portals", 0, "auto-Compact in the background once road inserts touch more than this many vertices (RoadOverlayStats().Portals; 0 disables)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "gpssn-serve: ", log.LstdFlags)
	if (*data == "") == (*snapIn == "") {
		fmt.Fprintln(os.Stderr, "gpssn-serve: exactly one of -data and -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := gpssn.DefaultConfig()
	cfg.DistanceOracle = *oracle
	cfg.StrictOracle = *strict
	cfg.CacheSize = *cache
	cfg.Parallelism = *par
	cfg.Logf = logger.Printf
	cfg.WALPath = *walPath
	cfg.WALSync = *walSync
	cfg.WALFlushWindow = *walFlush
	cfg.WALAutoCheckpointBytes = *walAuto
	cfg.CheckpointPath = *ckptPath
	cfg.OverlayCompactPortals = *portals

	db, err := openDB(*data, *snapIn, cfg)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("%s; indexes ready in %s", db.Network().Stats(), db.BuildTime)
	if h := db.Health(); h.Degraded {
		logger.Printf("degraded: serving with %q oracle (requested %q) — answers stay exact, queries run slower",
			h.OracleActive, h.OracleRequested)
	}

	srv := serve.New(db, serve.Config{
		MaxInFlight:    *inflight,
		DefaultTimeout: *defTO,
		MaxTimeout:     *maxTO,
		RetryAfter:     *retry,
		Logf:           logger.Printf,
	})
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		logger.Printf("received %s; draining (up to %s)", s, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		// Reject new queries first, then let the http.Server finish the
		// in-flight connections; Drain's own wait is subsumed by Shutdown
		// but bounds handler completion even for hijacked connections.
		if err := srv.Drain(ctx); err != nil {
			logger.Printf("%v; shutting down with requests in flight", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		// With the WAL attached and no writes arriving anymore, park the
		// durable state as a checkpoint: the restart opens it and replays
		// an empty log instead of the whole write history.
		if *walPath != "" {
			ckpt := *ckptPath
			if ckpt == "" {
				ckpt = *walPath + ".ckpt"
			}
			if st := db.WALStats(); st.Pending > 0 {
				if err := db.Checkpoint(ckpt); err != nil {
					logger.Printf("shutdown checkpoint: %v (the wal still holds everything; restart will replay it)", err)
				} else {
					logger.Printf("checkpointed %d pending update(s) to %s", st.Pending, ckpt)
				}
			}
		}
		if err := db.Close(); err != nil {
			logger.Printf("close: %v", err)
		}
		logger.Printf("drained; bye")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	}
}

// openDB loads the DB from a dataset file or a snapshot.
func openDB(data, snapshot string, cfg gpssn.Config) (*gpssn.DB, error) {
	if snapshot != "" {
		db, err := gpssn.OpenSnapshot(snapshot, cfg)
		if err != nil && errors.Is(err, gpssn.ErrSnapshotCorrupt) {
			return nil, fmt.Errorf("%w\nthe snapshot is damaged; regenerate it with gpssn-query -data ... -save-snapshot", err)
		}
		return db, err
	}
	f, err := os.Open(data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	net, err := gpssn.Load(f)
	if err != nil {
		return nil, err
	}
	return gpssn.Open(net, cfg)
}
