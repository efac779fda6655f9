package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpssn"
	"gpssn/internal/serve"
)

// setupRepeats is how many times a run builds its system under test; setup_s
// is the median, which keeps one slow page-cache or GC moment out of it.
const setupRepeats = 5

// instance is one set-up system under test: the generated network, the DB
// opened over it and, for serve_open, the HTTP server in front of it.
type instance struct {
	db       *gpssn.DB
	base     *gpssn.Network // as generated; read-only after setup
	cfg      gpssn.Config
	genS     float64
	openS    float64
	heapMB   float64 // live heap once set-up is done
	srv      *serve.Server
	url      string
	stopHTTP func() // closes the listener and waits for the server
}

// serveConfig is the gpssn-serve flag defaults.
var serveConfig = serve.Config{MaxInFlight: 128, DefaultTimeout: 5 * time.Second, GatherWindow: time.Millisecond}

// listenAndServe serves h on a loopback port of the kernel's choosing. stop
// closes every connection and returns once the server has.
func listenAndServe(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed from stop
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-served }, nil
}

// setup generates w's dataset, opens the DB with w's configuration and
// starts whatever sits in front of it. dir is a fresh directory the
// instance may fill.
func (w *workload) setup(dir string) (*instance, error) {
	in := &instance{}
	t0 := time.Now()
	netw, err := w.generate()
	if err != nil {
		return nil, err
	}
	in.genS = time.Since(t0).Seconds()
	in.base = netw
	in.cfg = w.Config()
	if w.Durable {
		in.cfg.WALPath = filepath.Join(dir, "db.wal")
	}
	t1 := time.Now()
	if in.db, err = gpssn.Open(netw, in.cfg); err != nil {
		return nil, err
	}
	if w.Durable {
		// A first checkpoint, so a crash at any later moment finds one to
		// recover from.
		if err := in.db.Checkpoint(in.checkpointPath()); err != nil {
			return nil, err
		}
	}
	in.openS = time.Since(t1).Seconds()
	if w.Serve {
		in.srv = serve.New(in.db, serveConfig)
		if in.url, in.stopHTTP, err = listenAndServe(in.srv.Handler()); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *instance) checkpointPath() string { return in.cfg.WALPath + ".ckpt" }

// close stops the server and the DB's background half and waits for both.
func (in *instance) close() {
	if in.stopHTTP != nil {
		in.stopHTTP()
	}
	in.db.Close()
}

// outcome is what one op returned, kept for the digest and the reference
// replay.
type outcome struct {
	Found    bool
	Answers  []gpssn.Answer
	IDs      [2]int // ids an update handed out
	CacheHit bool
	Err      string // non-empty: the op failed
}

// target executes ops against the system under test. sb may be nil
// (untraced); trace/parent place the target's span under the op's root.
type target interface {
	do(o *op, sb *spanBuf, trace, parent uint32) outcome
}

// libTarget calls the library facade directly.
type libTarget struct {
	db *gpssn.DB
	// watch, set on traced churn_wal runs, counts background maintenance
	// and records whether a rebuild was in flight when a query returned.
	watch *churnWatch
}

func (t *libTarget) do(o *op, sb *spanBuf, trace, parent uint32) (out outcome) {
	fail := func(err error) outcome { return outcome{Err: err.Error()} }
	switch o.Kind {
	case opQuery:
		s := sb.begin("gpssn.DB.Query", trace, parent)
		ans, st, err := t.db.Query(o.User, o.Q)
		sb.end(s)
		t.queryAttrs(s, st)
		if err != nil {
			if errors.Is(err, gpssn.ErrNoAnswer) {
				return outcome{CacheHit: st.CacheHit}
			}
			return fail(err)
		}
		return outcome{Found: true, Answers: []gpssn.Answer{*ans}, CacheHit: st.CacheHit}
	case opTopK:
		s := sb.begin("gpssn.DB.QueryTopK", trace, parent)
		answers, st, err := t.db.QueryTopK(o.User, o.Q, topK)
		sb.end(s)
		t.queryAttrs(s, st)
		if err != nil {
			return fail(err)
		}
		return outcome{Found: len(answers) > 0, Answers: answers, CacheHit: st.CacheHit}
	case opAddPOI:
		s := sb.begin("gpssn.DB.AddPOI", trace, parent)
		id, err := t.db.AddPOI(o.X, o.Y, o.Keywords...)
		sb.end(s)
		if err != nil {
			return fail(err)
		}
		out.IDs[0] = id
	case opAddUser:
		s := sb.begin("gpssn.DB.AddUser", trace, parent)
		id, err := t.db.AddUser(o.X, o.Y, o.Interests)
		sb.end(s)
		if err != nil {
			return fail(err)
		}
		s = sb.begin("gpssn.DB.AddFriendship", trace, parent)
		_, err = t.db.AddFriendship(id, o.User)
		sb.end(s)
		if err != nil {
			return fail(err)
		}
		out.IDs[0] = id
	case opAddFriendship:
		s := sb.begin("gpssn.DB.AddFriendship", trace, parent)
		added, err := t.db.AddFriendship(o.User, o.Other)
		sb.end(s)
		if err != nil {
			return fail(err)
		}
		if added {
			out.IDs[0] = 1
		}
	case opAddRoad:
		s := sb.begin("gpssn.DB.AddRoadVertex", trace, parent)
		v, err := t.db.AddRoadVertex(o.X, o.Y)
		sb.end(s)
		if err != nil {
			return fail(err)
		}
		s = sb.begin("gpssn.DB.AddRoadEdge", trace, parent)
		e, err := t.db.AddRoadEdge(o.User, v)
		sb.end(s)
		if err != nil {
			return fail(err)
		}
		out.IDs = [2]int{v, e}
	}
	if t.watch != nil {
		t.watch.observe(t.db)
	}
	out.Found = true
	return out
}

// queryAttrs attaches the layer's own counters to a traced query span.
func (t *libTarget) queryAttrs(s *span, st *gpssn.Stats) {
	if s == nil || st == nil {
		return
	}
	if st.CacheHit {
		s.set("cache_hit", 1)
	}
	s.set("cand_users", float64(st.CandidateUsers))
	s.set("cand_anchors", float64(st.CandidateAnchors))
	s.set("pairs_evaluated", float64(st.Raw.PairsEvaluated))
	s.set("page_reads", float64(st.PageReads))
	if t.watch != nil && t.db.Health().Rebuilding {
		s.set("rebuilding", 1)
		if d := time.Duration(s.End - s.Start); d > t.watch.queryStall {
			t.watch.queryStall = d
		}
	}
}

// httpTarget is one keep-alive connection to the serve layer.
type httpTarget struct {
	client *http.Client
	url    string
}

func newHTTPTarget(url string) *httpTarget {
	return &httpTarget{
		url: url,
		client: &http.Client{
			Timeout:   6 * time.Second, // just past the server's 5 s default deadline
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

type wireAnswer struct {
	Users       []int   `json:"users"`
	POIs        []int   `json:"pois"`
	Anchor      int     `json:"anchor"`
	MaxDistance float64 `json:"max_distance"`
}

type wireResponse struct {
	Found   bool         `json:"found"`
	Answer  wireAnswer   `json:"answer"`
	Answers []wireAnswer `json:"answers"`
	Stats   struct {
		CacheHit bool `json:"cache_hit"`
	} `json:"stats"`
}

func (a wireAnswer) answer() gpssn.Answer {
	return gpssn.Answer{Users: a.Users, POIs: a.POIs, Anchor: a.Anchor, MaxDistance: a.MaxDistance}
}

func requestBody(o *op) []byte {
	k := ""
	if o.Kind == opTopK {
		k = fmt.Sprintf(`,"k":%d`, topK)
	}
	return []byte(fmt.Sprintf(`{"user":%d,"group_size":%d,"gamma":%g,"theta":%g,"radius":%g%s}`,
		o.User, o.Q.GroupSize, o.Q.Gamma, o.Q.Theta, o.Q.Radius, k))
}

func (t *httpTarget) do(o *op, sb *spanBuf, trace, parent uint32) outcome {
	path := "/v1/query"
	if o.Kind == opTopK {
		path = "/v1/topk"
	}
	s := sb.begin("http.roundtrip", trace, parent)
	resp, err := t.client.Post(t.url+path, "application/json", bytes.NewReader(requestBody(o)))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	sb.end(s)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	s.set("status", float64(resp.StatusCode))
	if resp.Header.Get("X-Gpssn-Coalesced") != "" {
		s.set("coalesced", 1)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		// 429, 5xx, timeouts: refused or failed, and so a missed limit.
		return outcome{Err: fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))}
	}
	var wr wireResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &wr); err != nil {
			return outcome{Err: "decoding response: " + err.Error()}
		}
	}
	out := outcome{CacheHit: wr.Stats.CacheHit}
	if wr.Stats.CacheHit {
		s.set("cache_hit", 1)
	}
	if o.Kind == opTopK {
		for _, a := range wr.Answers {
			out.Answers = append(out.Answers, a.answer())
		}
		out.Found = len(out.Answers) > 0
	} else if wr.Found {
		out.Found = true
		out.Answers = []gpssn.Answer{wr.Answer.answer()}
	}
	return out
}

// rootName is the name of an op's root span: what the client asked for.
func (w *workload) rootName() string {
	if w.Serve {
		return "client.request"
	}
	return "op"
}

// finish closes an op's root span with the latency the runner measured.
func (s *span) finish(lat time.Duration, index int, kind opKind) {
	if s == nil {
		return
	}
	s.End = s.Start + int64(lat)
	s.set("op_index", float64(index))
	s.set("kind", float64(kind))
}

// runClosed drives ops through the targets as a closed loop: each target is
// one client that sends its next op when the previous one returns. Ops are
// handed out in order from a shared counter. It returns per-op latency and
// outcome, and the wall time of the whole loop.
func runClosed(tgts []target, ops []op, root string, rec *recorder) ([]time.Duration, []outcome, time.Duration) {
	lat := make([]time.Duration, len(ops))
	outs := make([]outcome, len(ops))
	bufs := make([]*spanBuf, len(tgts))
	for i := range bufs {
		bufs[i] = rec.buf()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c, tgt := range tgts {
		wg.Add(1)
		go func(tgt target, sb *spanBuf) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				t0 := time.Now()
				rs := sb.beginAt(root, 0, 0, sb.at(t0))
				trace, parent := rs.ids()
				outs[i] = tgt.do(o, sb, trace, parent)
				lat[i] = time.Since(t0)
				rs.finish(lat[i], i, o.Kind)
			}
		}(tgt, bufs[c])
	}
	wg.Wait()
	return lat, outs, time.Since(start)
}

// openResult is what an open-loop run measured.
type openResult struct {
	lat        []time.Duration // from due time to response read
	late       []time.Duration // how late the generator handed each request over
	startDelay []time.Duration // from due time until a connection took the request
	outs       []outcome
	wall       time.Duration
}

// runOpen drives ops as an open loop: request i is due at due[i] after the
// start whatever the server does, each of the targets is one connection,
// and a request that finds every connection busy waits its turn with the
// clock running. Latency counts from the due time.
func runOpen(tgts []target, ops []op, due []time.Duration, root string, rec *recorder) openResult {
	r := openResult{
		lat:        make([]time.Duration, len(ops)),
		late:       make([]time.Duration, len(ops)),
		startDelay: make([]time.Duration, len(ops)),
		outs:       make([]outcome, len(ops)),
	}
	bufs := make([]*spanBuf, len(tgts))
	for i := range bufs {
		bufs[i] = rec.buf()
	}
	// One slot per request, so the generator never blocks on a slow server.
	jobs := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for c, tgt := range tgts {
		wg.Add(1)
		go func(tgt target, sb *spanBuf) {
			defer wg.Done()
			for i := range jobs {
				dueAt := start.Add(due[i])
				r.startDelay[i] = time.Since(dueAt)
				rs := sb.beginAt(root, 0, 0, sb.at(dueAt))
				trace, parent := rs.ids()
				r.outs[i] = tgt.do(&ops[i], sb, trace, parent)
				r.lat[i] = time.Since(dueAt)
				rs.finish(r.lat[i], i, ops[i].Kind)
			}
		}(tgt, bufs[c])
	}
	for i := range ops {
		time.Sleep(time.Until(start.Add(due[i])))
		r.late[i] = time.Since(start.Add(due[i]))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	r.wall = time.Since(start)
	return r
}

// pass is one run of a workload's op stream against a freshly set-up
// instance.
type pass struct {
	inst   *instance
	allOps []op        // warm-up + measured
	ops    []op        // measured ops only
	watch  *churnWatch // traced churn_wal passes only
	lat    []time.Duration
	outs   []outcome
	open   *openResult // serve_open only
	// statszBefore/After bracket the measured window (serve_open only).
	statszBefore, statszAfter statsz
	setupS                    []float64
	warmupS                   float64
	measuredS                 float64
	// The shared-work memo as the window left it.
	shared    gpssn.SharedWorkStats
	memoBytes int64
	// Memory when the measured window ends: heapLiveMB is what a forced GC
	// leaves reachable, rssMB what stays resident after that GC has returned
	// its garbage, peakRSSMB the high-water mark up to the same moment.
	heapLiveMB, rssMB, peakRSSMB float64
}

// targets returns one target per client. watch is shared by all of them,
// which is safe because the only workload that sets it has one client.
func (w *workload) targets(in *instance, watch *churnWatch) []target {
	tgts := make([]target, w.Clients)
	for i := range tgts {
		if w.Serve {
			tgts[i] = newHTTPTarget(in.url)
		} else {
			tgts[i] = &libTarget{db: in.db, watch: watch}
		}
	}
	return tgts
}

// runPass sets w up setups times (keeping the last instance), warms it up
// and measures the seeded op stream. The caller closes p.inst.
func (w *workload) runPass(seed int64, seconds, setups int, rec *recorder, workDir string) (*pass, error) {
	p := &pass{}
	for i := 0; i < setups; i++ {
		if p.inst != nil {
			p.inst.close()
			p.inst = nil
			runtime.GC() // the discarded instance should not count against the next one
		}
		dir, err := os.MkdirTemp(workDir, w.Name+"-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		in, err := w.setup(dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		p.inst = in
	}
	runtime.GC()
	p.inst.heapMB = heapAllocMB()
	warm, measured := scaled(w.WarmupPer10s, seconds), scaled(w.MeasuredPer10s, seconds)
	ops := w.genOps(seed, p.inst.base, warm, measured)
	if rec != nil && w.Durable {
		p.watch = &churnWatch{}
	}
	tgts := w.targets(p.inst, p.watch)

	// Warm-up is always a closed loop and never traced: it fills caches and
	// lets lazy set-up finish.
	_, wouts, wwall := runClosed(tgts, ops[:warm], w.rootName(), nil)
	for i, o := range wouts {
		if o.Err != "" {
			return p, fmt.Errorf("warm-up op %d (%s) failed: %s", i, ops[i].Kind, o.Err)
		}
	}
	p.warmupS = wwall.Seconds()
	p.allOps, p.ops = ops, ops[warm:]
	if w.OpenLoopRate > 0 {
		due := arrivalSchedule(seed, measured, w.OpenLoopRate)
		p.statszBefore = readStatsz(p.inst.srv.Handler())
		r := runOpen(tgts, p.ops, due, w.rootName(), rec)
		p.statszAfter = readStatsz(p.inst.srv.Handler())
		p.open, p.lat, p.outs, p.measuredS = &r, r.lat, r.outs, r.wall.Seconds()
	} else {
		var wall time.Duration
		p.lat, p.outs, wall = runClosed(tgts, p.ops, w.rootName(), rec)
		p.measuredS = wall.Seconds()
	}
	for p.inst.db.Maintaining() { // a background Compact still holds a second copy of everything
		time.Sleep(time.Millisecond)
	}
	p.peakRSSMB = peakRSSMB()
	p.shared, p.memoBytes = p.inst.db.SharedWorkStats(), p.inst.db.MemoryStats().MemoBytes
	if w.Durable {
		// Memory is read at a quiescent point. How much the shared-work memo
		// holds when the script ends depends on how long ago the last road
		// edit wiped it (0-6 MB of 19), so a final Compact folds the pending
		// deltas and starts the memo empty, as every background cycle did.
		if err := p.inst.db.Compact(); err != nil {
			return p, err
		}
	}
	debug.FreeOSMemory() // collects the window's garbage and returns it
	p.rssMB = currentRSSMB()
	p.heapLiveMB = heapAllocMB()
	return p, nil
}

// queryLatenciesMs returns the sorted latencies of the pass's query ops.
func (p *pass) queryLatenciesMs() []float64 {
	var v []float64
	for i := range p.ops {
		if p.ops[i].Kind.isQuery() {
			v = append(v, ms(p.lat[i]))
		}
	}
	sort.Float64s(v)
	return v
}

// updateLatenciesUs returns the latencies of the pass's update ops.
func (p *pass) updateLatenciesUs() []float64 {
	var v []float64
	for i := range p.ops {
		if !p.ops[i].Kind.isQuery() {
			v = append(v, us(p.lat[i]))
		}
	}
	return v
}

// failedOps counts measured ops that failed, were refused or timed out.
func (p *pass) failedOps() (n int, first string) {
	for i, o := range p.outs {
		if o.Err != "" {
			if n == 0 {
				first = fmt.Sprintf("op %d (%s): %s", i, p.ops[i].Kind, o.Err)
			}
			n++
		}
	}
	return n, first
}

// cacheHitFrac is the share of measured queries the answer cache served.
func (p *pass) cacheHitFrac() float64 {
	hits, queries := 0, 0
	for i := range p.ops {
		if p.ops[i].Kind.isQuery() {
			queries++
			if p.outs[i].CacheHit {
				hits++
			}
		}
	}
	if queries == 0 {
		return 0
	}
	return float64(hits) / float64(queries)
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func (p *pass) endToEnd() (map[string]float64, error) {
	q := p.queryLatenciesMs()
	p95, err := guardedPercentile(q, 95)
	if err != nil {
		return nil, fmt.Errorf("query_p95_ms: %w", err)
	}
	return map[string]float64{
		"setup_s":          median(p.setupS),
		"query_p50_ms":     percentile(q, 50),
		"query_p95_ms":     p95,
		"throughput_ops_s": float64(len(p.ops)) / p.measuredS,
		"heap_live_mb":     p.heapLiveMB,
	}, nil
}
