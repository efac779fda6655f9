package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpssn"
)

// testDB builds the paper's Figure 1 / Table 1 network (the quickstart
// example) into an opened DB: 6 intersections, 4 POIs, 5 users. User 0
// with {group_size:2, gamma:0.5, theta:0.5, radius:1.5} has a feasible
// answer; gamma close to 1 has none.
func testDB(t *testing.T, cfg gpssn.Config) *gpssn.DB {
	t.Helper()
	b := gpssn.NewBuilder(3)
	var v [6]int
	coords := [][2]float64{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	for i, c := range coords {
		v[i] = b.AddIntersection(c[0], c[1])
	}
	b.AddRoad(v[0], v[1]).AddRoad(v[1], v[2])
	b.AddRoad(v[3], v[4]).AddRoad(v[4], v[5])
	b.AddRoad(v[0], v[3]).AddRoad(v[1], v[4]).AddRoad(v[2], v[5])
	b.AddPOI(0.5, 0, 0)
	b.AddPOI(1.5, 0, 1)
	b.AddPOI(0.5, 1, 2)
	b.AddPOI(1.5, 1, 0, 2)
	interests := [][]float64{
		{0.7, 0.3, 0.7},
		{0.2, 0.9, 0.3},
		{0.4, 0.8, 0.8},
		{0.9, 0.7, 0.7},
		{0.1, 0.8, 0.5},
	}
	homes := [][2]float64{{0.1, 0}, {1.2, 0}, {1.9, 0.5}, {0.3, 1}, {1.7, 1}}
	var u [5]int
	for i := range interests {
		u[i] = b.AddUser(homes[i][0], homes[i][1], interests[i])
	}
	b.AddFriendship(u[0], u[1]).AddFriendship(u[0], u[2]).AddFriendship(u[1], u[2])
	b.AddFriendship(u[2], u[3]).AddFriendship(u[3], u[4])
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RoadPivots == 0 {
		cfg.RoadPivots, cfg.SocialPivots, cfg.LeafSize, cfg.Fanout = 2, 2, 2, 2
	}
	db, err := gpssn.Open(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// feasibleBody is a request user 0 can answer on the test network.
const feasibleBody = `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5}`

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeError(t *testing.T, b []byte) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("decoding error envelope %q: %v", b, err)
	}
	return e
}

// TestErrorMapping drives every typed-error → HTTP status translation
// through the real handler stack, seams standing in for error classes
// that a healthy DB cannot be made to produce on demand.
func TestErrorMapping(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		path, body string
		seamErr    error // when set, execQuery returns it
		wantStatus int
		wantCode   string
	}{
		{name: "found", path: "/v1/query", body: feasibleBody, wantStatus: 200},
		{name: "invalid group size", path: "/v1/query",
			body:       `{"user":0,"group_size":0,"gamma":0.5,"theta":0.5,"radius":1.5}`,
			wantStatus: 400, wantCode: "invalid_input"},
		{name: "invalid user", path: "/v1/query",
			body:       `{"user":99,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5}`,
			wantStatus: 400, wantCode: "invalid_input"},
		{name: "invalid radius", path: "/v1/query",
			body:       `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":-1}`,
			wantStatus: 400, wantCode: "invalid_input"},
		// Rejected by the engine (r outside the index build range), not
		// the facade's own validation — regression: this surfaced as an
		// untyped error and mapped 500 before core.ErrInvalidParams.
		{name: "radius outside index range", path: "/v1/query",
			body:       `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":99}`,
			wantStatus: 400, wantCode: "invalid_input"},
		{name: "malformed json", path: "/v1/query", body: `{"user":`,
			wantStatus: 400, wantCode: "invalid_input"},
		{name: "unknown field", path: "/v1/query",
			body:       `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5,"bogus":1}`,
			wantStatus: 400, wantCode: "invalid_input"},
		{name: "unknown metric", path: "/v1/query",
			body:       `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5,"metric":"cosine"}`,
			wantStatus: 400, wantCode: "invalid_input"},
		{name: "k rejected on query", path: "/v1/query",
			body:       `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5,"k":3}`,
			wantStatus: 400, wantCode: "invalid_input"},
		{name: "no answer", path: "/v1/query",
			body:       `{"user":0,"group_size":5,"gamma":100,"theta":0.5,"radius":1.5}`,
			wantStatus: 404, wantCode: "no_answer"},
		{name: "deadline", path: "/v1/query", body: feasibleBody,
			seamErr:    fmt.Errorf("%w: too slow", gpssn.ErrDeadlineExceeded),
			wantStatus: 504, wantCode: "deadline_exceeded"},
		{name: "cancelled", path: "/v1/query", body: feasibleBody,
			seamErr:    fmt.Errorf("%w: gone", gpssn.ErrCancelled),
			wantStatus: StatusClientClosedRequest, wantCode: "cancelled"},
		{name: "internal", path: "/v1/query", body: feasibleBody,
			seamErr:    fmt.Errorf("%w: invariant broke", gpssn.ErrInternal),
			wantStatus: 500, wantCode: "internal"},
		{name: "topk ok", path: "/v1/topk",
			body:       `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5,"k":2}`,
			wantStatus: 200},
		{name: "topk empty is 200", path: "/v1/topk",
			body:       `{"user":0,"group_size":5,"gamma":100,"theta":0.5,"radius":1.5}`,
			wantStatus: 200},
		{name: "topk bad k", path: "/v1/topk",
			body:       `{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5,"k":-1}`,
			wantStatus: 400, wantCode: "invalid_input"},
	}
	realExec := s.execQuery
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s.execQuery = realExec
			if tc.seamErr != nil {
				s.execQuery = func(ctx context.Context, user int, q gpssn.Query) (*gpssn.Answer, *gpssn.Stats, error) {
					return nil, &gpssn.Stats{}, tc.seamErr
				}
			}
			resp, body := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, body, tc.wantStatus)
			}
			if tc.wantCode != "" {
				if e := decodeError(t, body); e.Code != tc.wantCode {
					t.Fatalf("code = %q (%s), want %q", e.Code, body, tc.wantCode)
				}
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/query = %d, want 405", resp.StatusCode)
		}
	})
}

// TestQueryMatchesLibrary asserts the HTTP answer agrees with a direct
// library call, field by field.
func TestQueryMatchesLibrary(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts, "/v1/query", feasibleBody)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got queryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Query(0, gpssn.Query{GroupSize: 2, Gamma: 0.5, Theta: 0.5, Radius: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found {
		t.Fatal("found = false")
	}
	if fmt.Sprint(got.Answer.Users) != fmt.Sprint(want.Users) ||
		fmt.Sprint(got.Answer.POIs) != fmt.Sprint(want.POIs) ||
		got.Answer.Anchor != want.Anchor ||
		got.Answer.MaxDistance != want.MaxDistance {
		t.Fatalf("HTTP answer %+v != library answer %+v", got.Answer, want)
	}
}

// TestHealthz covers the ready and draining states.
func TestHealthz(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v, want 200 ok", resp.StatusCode, h)
	}
	if h.OracleActive == "" || h.OracleRequested == "" {
		t.Fatalf("healthz lacks oracle fields: %+v", h)
	}

	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestSingleflight proves the coalescing contract under -race: N identical
// concurrent requests perform exactly one engine execution, and every
// client receives byte-identical responses; the N-1 followers are marked
// with the X-Gpssn-Coalesced header.
func TestSingleflight(t *testing.T) {
	// Answer cache off: the single execution must come from coalescing,
	// not from a cache hit.
	db := testDB(t, gpssn.Config{CacheSize: 0})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	var executions atomic.Int64
	gate := make(chan struct{})
	real := s.execQuery
	s.execQuery = func(ctx context.Context, user int, q gpssn.Query) (*gpssn.Answer, *gpssn.Stats, error) {
		executions.Add(1)
		<-gate // hold the execution until every request has joined
		return real(ctx, user, q)
	}

	req := &queryRequest{User: 0, GroupSize: 2, Gamma: 0.5, Theta: 0.5, Radius: 1.5}
	key := req.flightKey(false, 0)

	type outcome struct {
		status    int
		body      []byte
		coalesced bool
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(feasibleBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			results[i] = outcome{resp.StatusCode, b, resp.Header.Get("X-Gpssn-Coalesced") == "1"}
		}(i)
	}

	// Open the gate only once all n requests are blocked on the one call.
	deadline := time.Now().Add(10 * time.Second)
	for s.fl.pending(key) != n {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("only %d/%d requests joined the flight", s.fl.pending(key), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("engine executions = %d, want 1", got)
	}
	coalesced := 0
	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, r.body, results[0].body)
		}
		if r.coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced followers = %d, want %d", coalesced, n-1)
	}
	if got := s.met.Coalesced.Load(); got != n-1 {
		t.Fatalf("metrics coalesced = %d, want %d", got, n-1)
	}
	if got := s.met.Executed.Load(); got != 1 {
		t.Fatalf("metrics executed = %d, want 1", got)
	}
}

// TestAdmissionControl saturates a MaxInFlight=1 server with a blocked
// execution and asserts a different query is shed with 429 + Retry-After,
// then served normally once the slot frees up.
func TestAdmissionControl(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	s := New(db, Config{MaxInFlight: 1, RetryAfter: 7 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	real := s.execQuery
	started := make(chan struct{}, 1)
	s.execQuery = func(ctx context.Context, user int, q gpssn.Query) (*gpssn.Answer, *gpssn.Stats, error) {
		started <- struct{}{}
		<-gate
		return real(ctx, user, q)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := post(t, ts, "/v1/query", feasibleBody)
		if resp.StatusCode != 200 {
			t.Errorf("blocked query finished %d: %s", resp.StatusCode, body)
		}
	}()
	<-started // the slot is now held

	// A different user's query cannot coalesce and must be shed.
	other := `{"user":3,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5}`
	resp, body := post(t, ts, "/v1/query", other)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != "overloaded" {
		t.Fatalf("code = %q, want overloaded", e.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}
	if s.met.Shed.Load() == 0 {
		t.Fatal("shed metric not incremented")
	}

	close(gate)
	wg.Wait()
	resp, body = post(t, ts, "/v1/query", other)
	if resp.StatusCode != 200 {
		t.Fatalf("post-release status = %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestDrain checks the graceful-shutdown contract: in-flight requests run
// to completion, new ones are rejected 503, and Drain returns only once
// the last in-flight request finished.
func TestDrain(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	real := s.execQuery
	started := make(chan struct{}, 1)
	s.execQuery = func(ctx context.Context, user int, q gpssn.Query) (*gpssn.Answer, *gpssn.Stats, error) {
		started <- struct{}{}
		<-gate
		return real(ctx, user, q)
	}

	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(feasibleBody))
		if err != nil {
			slowDone <- 0
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		slowDone <- resp.StatusCode
	}()
	<-started

	s.BeginDrain()
	resp, body := post(t, ts, "/v1/query", feasibleBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d (%s), want 503", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != "draining" {
		t.Fatalf("code = %q, want draining", e.Code)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if status := <-slowDone; status != 200 {
		t.Fatalf("in-flight request during drain finished %d, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestEffectiveTimeout pins the default/max timeout resolution matrix.
func TestEffectiveTimeout(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	cases := []struct {
		def, max time.Duration
		reqMs    int64
		want     time.Duration
	}{
		{0, 0, 0, 0},
		{0, 0, 250, 250 * time.Millisecond},
		{2 * time.Second, 0, 0, 2 * time.Second},
		{2 * time.Second, 0, 250, 250 * time.Millisecond},
		{0, time.Second, 0, time.Second},
		{0, time.Second, 5000, time.Second},
		{2 * time.Second, time.Second, 0, time.Second},
		{time.Second, 2 * time.Second, 0, time.Second},
	}
	for _, tc := range cases {
		s := New(db, Config{DefaultTimeout: tc.def, MaxTimeout: tc.max})
		if got := s.effectiveTimeout(tc.reqMs); got != tc.want {
			t.Errorf("effectiveTimeout(def=%v max=%v req=%dms) = %v, want %v",
				tc.def, tc.max, tc.reqMs, got, tc.want)
		}
	}
}

// TestRequestTimeoutMaps504 drives a real slow execution into the mapped
// 504 through a request-level timeout_ms.
func TestRequestTimeoutMaps504(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	real := s.execQuery
	s.execQuery = func(ctx context.Context, user int, q gpssn.Query) (*gpssn.Answer, *gpssn.Stats, error) {
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
		return real(ctx, user, q)
	}
	resp, body := post(t, ts, "/v1/query",
		`{"user":0,"group_size":2,"gamma":0.5,"theta":0.5,"radius":1.5,"timeout_ms":30}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != "deadline_exceeded" {
		t.Fatalf("code = %q, want deadline_exceeded", e.Code)
	}
}

// TestStatszRoadOverlay checks that /statsz surfaces the road insert
// counters while inserts are pending a Compact and drops the block once
// Compact has rebuilt the oracle.
func TestStatszRoadOverlay(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	statsz := func() map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("/statsz status %d err %v", resp.StatusCode, err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("decoding /statsz: %v", err)
		}
		return m
	}

	if m := statsz(); m["road_overlay"] != nil {
		t.Fatalf("a DB with no road insert should surface no road_overlay block: %s", m["road_overlay"])
	}

	v, err := db.AddRoadVertex(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddRoadEdge(0, v); err != nil {
		t.Fatal(err)
	}
	m := statsz()
	if m["road_overlay"] == nil {
		t.Fatal("/statsz missing road_overlay after a road mutation")
	}
	var ov roadOverlayJSON
	if err := json.Unmarshal(m["road_overlay"], &ov); err != nil {
		t.Fatalf("decoding road_overlay block: %v", err)
	}
	if ov.NewVertices != 1 || ov.NewEdges != 1 || ov.Portals != 2 {
		t.Fatalf("road_overlay counters off: %+v", ov)
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if m := statsz(); m["road_overlay"] != nil {
		t.Fatalf("Compact should retire the road_overlay block: %s", m["road_overlay"])
	}
}

// TestStatszWAL checks that /statsz surfaces the write-ahead-log block
// exactly when a WAL is attached, and that its counters move with update
// traffic and reset at a checkpoint.
func TestStatszWAL(t *testing.T) {
	dir := t.TempDir()
	var cfg gpssn.Config
	cfg.WALPath = filepath.Join(dir, "serve.wal")
	db := testDB(t, cfg)
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	statsz := func() map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("/statsz status %d err %v", resp.StatusCode, err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("decoding /statsz: %v", err)
		}
		return m
	}

	m := statsz()
	if m["wal"] == nil {
		t.Fatal("/statsz missing wal block with a WAL attached")
	}
	var w walJSON
	if err := json.Unmarshal(m["wal"], &w); err != nil {
		t.Fatalf("decoding wal block: %v", err)
	}
	if w.Path != cfg.WALPath || w.Sync != "always" || w.Pending != 0 {
		t.Fatalf("fresh wal block off: %+v", w)
	}

	if _, err := db.AddPOI(0.5, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(statsz()["wal"], &w); err != nil {
		t.Fatal(err)
	}
	if w.Pending != 1 || w.LastLSN != 1 || w.AppliedLSN != 1 || w.Appends != 1 || w.Fsyncs < 1 {
		t.Fatalf("wal block after one update off: %+v", w)
	}

	if err := db.Checkpoint(filepath.Join(dir, "serve.ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(statsz()["wal"], &w); err != nil {
		t.Fatal(err)
	}
	if w.Pending != 0 || w.StartLSN != 2 {
		t.Fatalf("wal block after checkpoint off: %+v", w)
	}

	// No WAL attached: the block must be absent.
	db2 := testDB(t, gpssn.Config{})
	s2 := New(db2, Config{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m2 map[string]json.RawMessage
	if err := json.Unmarshal(body, &m2); err != nil {
		t.Fatal(err)
	}
	if m2["wal"] != nil {
		t.Fatalf("WAL-less DB should surface no wal block: %s", m2["wal"])
	}
}

// TestStatszShape checks the /statsz shape after real queries:
// the flight snapshot and the memory block are present with the label
// store, POI label table and heap accounted for, no key of the removed
// gather window or label memo remains, and the POI label table's bytes
// stay as they were after a road mutation (the table answers for the
// base graph).
func TestStatszShape(t *testing.T) {
	db := testDB(t, gpssn.Config{})
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		if resp, _ := post(t, ts, "/v1/query", feasibleBody); resp.StatusCode != 200 {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	statsz := func() (map[string]json.RawMessage, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("/statsz status %d err %v", resp.StatusCode, err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("decoding /statsz: %v", err)
		}
		return m, body
	}
	m, body := statsz()
	for _, field := range []string{"flight_in_flight_keys", "flight_waiters", "flight_max_waiters_one_key", "memory"} {
		if _, ok := m[field]; !ok {
			t.Errorf("/statsz missing %q: %s", field, body)
		}
	}
	for _, gone := range []string{"gather_window_ms", "gather_batches_total", "gather_batched_requests_total", "gather_max_batch", "shared_work"} {
		if _, ok := m[gone]; ok {
			t.Errorf("/statsz still reports the removed %q: %s", gone, body)
		}
	}
	var mem map[string]json.RawMessage
	if err := json.Unmarshal(m["memory"], &mem); err != nil {
		t.Fatalf("decoding memory block: %v", err)
	}
	if _, ok := mem["memo_bytes"]; ok {
		t.Errorf("memory still reports the removed memo_bytes: %s", m["memory"])
	}
	var mj memoryJSON
	if err := json.Unmarshal(m["memory"], &mj); err != nil {
		t.Fatalf("decoding memory block: %v", err)
	}
	// The test server runs with the default hl oracle and has answered
	// real queries, so the label store, the POI label table and the heap
	// must all be nonzero.
	if mj.OracleBytes <= 0 || mj.POILabelBytes <= 0 || mj.HeapAlloc == 0 {
		t.Errorf("memory block has a zero headline: %s", m["memory"])
	}

	held := mj.POILabelBytes
	if _, err := db.AddRoadEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	m, _ = statsz()
	if err := json.Unmarshal(m["memory"], &mj); err != nil {
		t.Fatal(err)
	}
	if mj.POILabelBytes != held {
		t.Errorf("memory.poi_label_bytes = %d after AddRoadEdge, want %d: the table answers for the base graph", mj.POILabelBytes, held)
	}
}

// TestGatherWindowIsInert: the deprecated GatherWindow field no longer
// holds requests, so a server configured with a one-second window answers
// a query in a small fraction of it.
func TestGatherWindowIsInert(t *testing.T) {
	srv := New(testDB(t, gpssn.Config{}), Config{GatherWindow: time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	start := time.Now()
	if resp, body := post(t, ts, "/v1/query", feasibleBody); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("query took %s under a 1s GatherWindow, want well under the window", took)
	}
}
