package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gpssn"
)

// TestGathererFoldsConcurrentHolds: requests arriving within one window
// are released together as a single batch, and the counters record it.
func TestGathererFoldsConcurrentHolds(t *testing.T) {
	g := newGatherer(30 * time.Millisecond)
	const callers = 8
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.hold(context.Background())
		}()
	}
	wg.Wait()
	if held := time.Since(start); held < 20*time.Millisecond {
		t.Fatalf("batch released after %s, want ~30ms window", held)
	}
	if got := g.batches.Load(); got != 1 {
		t.Fatalf("batches = %d, want 1 (all callers in one window)", got)
	}
	if got := g.batched.Load(); got != callers {
		t.Fatalf("batched requests = %d, want %d", got, callers)
	}
	if got := g.maxBatch.Load(); got != callers {
		t.Fatalf("max batch = %d, want %d", got, callers)
	}

	// The next arrival opens a fresh window — batches keep counting.
	g.hold(context.Background())
	if got := g.batches.Load(); got != 2 {
		t.Fatalf("batches after second window = %d, want 2", got)
	}
}

// TestGathererZeroWindowIsNoOp: the library default (no gather window)
// must not delay or count anything, and a nil gatherer is safe.
func TestGathererZeroWindowIsNoOp(t *testing.T) {
	g := newGatherer(0)
	start := time.Now()
	g.hold(context.Background())
	if held := time.Since(start); held > 5*time.Millisecond {
		t.Fatalf("zero-window hold blocked for %s", held)
	}
	if g.batches.Load() != 0 || g.batched.Load() != 0 {
		t.Fatal("zero-window gatherer recorded batches")
	}
	var nilG *gatherer
	nilG.hold(context.Background()) // must not panic
}

// TestGathererReleasesAbandoningClient: a caller whose context fires
// mid-window leaves immediately instead of waiting out the batch.
func TestGathererReleasesAbandoningClient(t *testing.T) {
	g := newGatherer(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		g.hold(ctx)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("cancelled hold did not return")
	}
}

// TestStatszSharedWork drives identical queries through a server with the
// gather window enabled and checks the /statsz additions of this layer:
// the shared_work block with nonzero memo traffic, the gather counters,
// and the flight snapshot fields.
func TestStatszSharedWork(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	srv := New(db, Config{GatherWindow: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		resp, _ := post(t, ts, "/v1/query", feasibleBody)
		if resp.StatusCode != 200 {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/statsz status %d", resp.StatusCode)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	for _, field := range []string{
		"flight_in_flight_keys", "flight_waiters", "flight_max_waiters_one_key",
		"gather_window_ms", "gather_batches_total", "gather_batched_requests_total",
		"gather_max_batch", "shared_work",
	} {
		if _, ok := m[field]; !ok {
			t.Errorf("/statsz missing %q: %s", field, body)
		}
	}

	var sw struct {
		RoadVersion int64   `json:"road_version"`
		BallHits    int64   `json:"ball_hits_total"`
		BallMisses  int64   `json:"ball_misses_total"`
		SweepHits   int64   `json:"sweep_hits_total"`
		SweepMisses int64   `json:"sweep_misses_total"`
		HitRate     float64 `json:"hit_rate"`
	}
	if err := json.Unmarshal(m["shared_work"], &sw); err != nil {
		t.Fatalf("decoding shared_work block: %v", err)
	}
	if sw.BallMisses+sw.SweepMisses == 0 {
		t.Fatalf("shared_work shows no memo traffic: %s", m["shared_work"])
	}

	var mem struct {
		OracleBytes   int64  `json:"oracle_bytes"`
		ArenaBytes    int64  `json:"arena_bytes"`
		POILabelBytes int64  `json:"poi_label_bytes"`
		HeapAlloc     uint64 `json:"heap_alloc_bytes"`
	}
	if err := json.Unmarshal(m["memory"], &mem); err != nil {
		t.Fatalf("decoding memory block: %v", err)
	}
	// The test server runs with the default hl oracle and has answered
	// real queries, so the label store, the POI label table and the heap
	// must all be nonzero.
	if mem.OracleBytes <= 0 {
		t.Errorf("memory.oracle_bytes = %d, want > 0: %s", mem.OracleBytes, m["memory"])
	}
	if mem.POILabelBytes <= 0 {
		t.Errorf("memory.poi_label_bytes = %d, want > 0: %s", mem.POILabelBytes, m["memory"])
	}
	if mem.HeapAlloc == 0 {
		t.Errorf("memory.heap_alloc_bytes = 0: %s", m["memory"])
	}

	// Identical requests coalesce in flight before reaching the engine, so
	// memo hits need the cache-busting spread below: distinct users whose
	// probes still share anchors.
	for _, body := range []string{
		`{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5}`,
		`{"user":1,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5}`,
		`{"user":2,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5}`,
	} {
		post(t, ts, "/v1/query", body)
	}
	st := db.SharedWorkStats()
	if !st.Enabled {
		t.Fatal("DB opened by the server has the memo disabled")
	}
	if st.BallHits+st.SweepHits == 0 {
		t.Fatalf("no shared-work hits after overlapping queries: %+v", st)
	}

	// A road mutation puts the overlay in front of the labels: the POI
	// label table is released and /statsz must say so.
	if _, err := db.AddRoadEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := srv.snapshot().Memory.POILabelBytes; got != 0 {
		t.Errorf("memory.poi_label_bytes = %d after AddRoadEdge, want 0", got)
	}
}

// TestFlightSnapshot checks the live coalescing-depth readout: a blocked
// leader with joined waiters shows up in keys/waiters/maxWaiters, and a
// drained flight reads back as empty.
func TestFlightSnapshot(t *testing.T) {
	f := newFlight()
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	exec := func(context.Context) flightResult {
		close(leaderIn)
		<-block
		return flightResult{status: 200}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.do("k", context.Background(), 0, exec)
	}()
	<-leaderIn
	const joiners = 3
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.do("k", context.Background(), 0, func(context.Context) flightResult {
				return flightResult{status: 200}
			})
		}()
	}
	// Wait for the joiners to register on the key.
	deadline := time.Now().Add(time.Second)
	for f.pending("k") < joiners+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	keys, waiters, maxW := f.snapshot()
	if keys != 1 {
		t.Fatalf("in-flight keys = %d, want 1", keys)
	}
	if waiters != joiners+1 {
		t.Fatalf("waiters = %d, want %d", waiters, joiners+1)
	}
	if maxW != joiners+1 {
		t.Fatalf("max waiters on one key = %d, want %d", maxW, joiners+1)
	}
	close(block)
	wg.Wait()
	if keys, waiters, _ := f.snapshot(); keys != 0 || waiters != 0 {
		t.Fatalf("drained flight reports keys=%d waiters=%d, want 0/0", keys, waiters)
	}
}
