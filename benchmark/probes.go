package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"gpssn"
	"gpssn/internal/core"
	"gpssn/internal/geo"
	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/pivot"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/rtree"
	"gpssn/internal/serve"
	"gpssn/internal/socialnet"
	"gpssn/internal/wal"
)

// The layer probes time calls into each layer's exported functions on the
// workload's own dataset, from outside the layer. Every probe is a root
// span of its own in the span file.

// statsz is the part of GET /statsz the serve metrics are computed from.
type statsz struct {
	Requests      int64 `json:"requests_total"`
	Executed      int64 `json:"executed_total"`
	Coalesced     int64 `json:"coalesced_total"`
	CacheHits     int64 `json:"cache_hits_total"`
	Shed          int64 `json:"shed_total"`
	GatherBatches int64 `json:"gather_batches_total"`
	GatherBatched int64 `json:"gather_batched_requests_total"`
}

func readStatsz(h http.Handler) statsz {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var s statsz
	json.Unmarshal(rr.Body.Bytes(), &s) // a zero statsz on a malformed body shows up as zero metrics
	return s
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// passLayerMetrics are the per-layer metrics read off the traced pass
// itself: client-observed samples and the counters the layers export.
func (w *workload) passLayerMetrics(p, untraced *pass) map[string]float64 {
	m := map[string]float64{}
	q := p.queryLatenciesMs()
	if v, err := guardedPercentile(q, 99); err == nil {
		m["query_p99_ms"] = v // stays 0 when fewer than 10 samples lie beyond it
	}
	if u := untraced.queryLatenciesMs(); len(u) > 0 && percentile(u, 50) > 0 {
		m["trace.overhead_frac"] = percentile(q, 50)/percentile(u, 50) - 1
	}
	m["peak_rss_mb"] = untraced.peakRSSMB
	m["rss_mb"] = untraced.rssMB
	m["warmup_s"] = p.warmupS
	m["gpssn.open_s"] = p.inst.openS
	m["gen.synthetic_s"] = p.inst.genS
	m["gpssn.heap_after_open_mb"] = p.inst.heapMB
	m["gpssn.cache.hit_frac"] = p.cacheHitFrac()
	if upd := p.updateLatenciesUs(); len(upd) > 0 {
		m["update_p50_us"] = median(upd)
		m["gpssn.update.stall_max_ms"] = slices.Max(upd) / 1000
	}
	sw := p.shared
	m["core.memo.ball_hit_frac"] = frac(sw.BallHits, sw.BallHits+sw.BallMisses)
	m["core.memo.sweep_hit_frac"] = frac(sw.SweepHits, sw.SweepHits+sw.SweepMisses)
	m["core.memo.ball_evictions"] = float64(sw.BallEvictions)
	m["core.memo.bytes"] = float64(p.memoBytes)
	if p.watch != nil {
		m["gpssn.compact.cycles"] = float64(p.watch.compactions)
		m["wal.checkpoints"] = float64(p.watch.checkpoints)
		m["gpssn.compact.query_stall_ms"] = ms(p.watch.queryStall)
	}
	if p.open != nil {
		late := make([]float64, len(p.open.late))
		for i, d := range p.open.late {
			late[i] = ms(d)
		}
		sort.Float64s(late)
		m["loadgen.late_p99_ms"] = percentile(late, 99)
		a, b := p.statszBefore, p.statszAfter
		req := b.Requests - a.Requests
		m["serve.cache_hit_frac"] = frac(b.CacheHits-a.CacheHits, req)
		m["serve.coalesced_frac"] = frac(b.Coalesced-a.Coalesced, req)
		m["serve.shed_frac"] = frac(b.Shed-a.Shed, req)
		m["serve.gather_batch_avg"] = frac(b.GatherBatched-a.GatherBatched, b.GatherBatches-a.GatherBatches)
	}
	return m
}

// prober runs probes, giving each a root span and collecting its values.
type prober struct {
	sb *spanBuf
	m  map[string]float64
}

// run times nothing itself: fn measures and returns the metric's value.
func (pr *prober) run(name string, fn func() float64) {
	s := pr.sb.begin("probe."+name, 0, 0)
	v := fn()
	pr.sb.end(s)
	s.set("value", v)
	pr.m[name] = v
}

// runProbes runs every layer probe on the traced pass's dataset.
func (w *workload) runProbes(p *pass, rec *recorder, seed int64, seconds int, workDir string) (map[string]float64, error) {
	pr := &prober{sb: rec.buf(), m: map[string]float64{}}
	rng := rand.New(rand.NewSource(seed))
	for p.inst.db.Maintaining() {
		time.Sleep(time.Millisecond)
	}
	ds := p.inst.db.Network().Dataset()
	sample := sampleQueries(p.ops, 100, seed)

	if err := w.probeCore(pr, p, sample); err != nil {
		return nil, err
	}
	w.probeRoadnet(pr, ds, rng, int(math.Round(pr.m["core.cand_anchors_avg"])))
	if err := w.probeIndex(pr, p.inst.db.Engine(), ds, rng); err != nil {
		return nil, err
	}
	if err := w.probeFacade(pr, p, sample, rng, workDir); err != nil {
		return nil, err
	}
	if err := probeWAL(pr, workDir); err != nil {
		return nil, err
	}
	if w.Serve {
		w.probeLadder(pr, p, seed, seconds)
	}
	return pr.m, nil
}

// coreParams maps a facade query onto the engine's parameters.
func coreParams(q gpssn.Query) core.Params {
	return core.Params{Gamma: q.Gamma, Tau: q.GroupSize, Theta: q.Theta, R: q.Radius}
}

// engineP50 is the median Engine.Query latency over the sampled ops, in ms.
func engineP50(e *core.Engine, ops []op, sample []int) float64 {
	return timeEach(len(sample), func(i int) {
		o := &ops[sample[i]]
		e.Query(socialnet.UserID(o.User), coreParams(o.Q))
	}) / 1000
}

// probeCore times Engine.Query* without the facade and averages the
// per-query counters the engine reports.
func (w *workload) probeCore(pr *prober, p *pass, sample []int) error {
	eng := p.inst.db.Engine()
	var users, anchors, pairs, pages, settled, snPruned, snTotal, rnPruned, rnTotal float64
	pr.run("core.query_ms", func() float64 {
		// A cancellable context arms the query's checkpoint, which is what
		// makes the engine count its road-search work (SettledWork).
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		lat := make([]float64, len(sample))
		for i, j := range sample {
			o := &p.ops[j]
			t0 := time.Now()
			_, st, _ := eng.QueryCtx(ctx, socialnet.UserID(o.User), coreParams(o.Q))
			lat[i] = ms(time.Since(t0))
			users += float64(st.CandUsers)
			anchors += float64(st.CandAnchors)
			pairs += float64(st.PairsEvaluated)
			pages += float64(st.PageReads)
			settled += float64(st.SettledWork)
			snPruned += float64(st.SNIndexPruned + st.SNObjPruned)
			snTotal += float64(st.SNUsersTotal)
			rnPruned += float64(st.RNIndexPruned + st.RNObjPruned)
			rnTotal += float64(st.RNPOIsTotal)
		}
		return median(lat)
	})
	n := float64(len(sample))
	pr.m["core.cand_users_avg"] = users / n
	pr.m["core.cand_anchors_avg"] = anchors / n
	pr.m["core.pairs_evaluated_avg"] = pairs / n
	pr.m["core.page_reads_avg"] = pages / n
	pr.m["core.settled_work_avg"] = settled / n
	pr.m["core.sn_pruned_frac"] = snPruned / snTotal
	pr.m["core.rn_pruned_frac"] = rnPruned / rnTotal
	pr.run("core.topk_ms", func() float64 {
		return timeEach(min(30, len(sample)), func(i int) {
			o := &p.ops[sample[i]]
			eng.QueryTopK(socialnet.UserID(o.User), coreParams(o.Q), topK)
		}) / 1000
	})

	// The other backends and the parallel speed-up are measured on DBs over
	// the dataset as generated: array-mode refinement needs a ch or dijkstra
	// oracle attached, and a second engine cannot share a churned dataset's
	// delta bookkeeping.
	few := sample[:min(20, len(sample))]
	for _, backend := range []string{"ch", "dijkstra"} {
		netw, err := w.generate()
		if err != nil {
			return err
		}
		cfg := gpssn.DefaultConfig()
		cfg.DistanceOracle = backend
		db, err := gpssn.Open(netw, cfg)
		if err != nil {
			return err
		}
		pr.run("core.query_"+backend+"_ms", func() float64 { return engineP50(db.Engine(), p.ops, few) })
		db.Close()
	}
	netw, err := w.generate()
	if err != nil {
		return err
	}
	cfg := gpssn.DefaultConfig()
	cfg.DisableSharedWork = true // a memo would hand the second engine the first one's work
	db, err := gpssn.Open(netw, cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	base := db.Engine()
	half := sample[:min(60, len(sample))]
	pr.run("core.parallel_speedup", func() float64 {
		var p50 [2]float64
		for i, par := range []int{1, 2} {
			e := core.NewEngine(base.DS, base.Road, base.Social, core.Options{Parallelism: par})
			p50[i] = engineP50(e, p.ops, half)
		}
		return p50[0] / p50[1]
	})
	// The facade's own cost per miss: DB.Query minus Engine.Query with no
	// cache and no memo. The difference is microseconds under milliseconds,
	// so the same cheapest sampled query runs many times on both sides and
	// the medians are subtracted; expect noise of a few microseconds.
	cheapest, best := &p.ops[few[0]], time.Duration(math.MaxInt64)
	for _, j := range few {
		o := &p.ops[j]
		t0 := time.Now()
		base.Query(socialnet.UserID(o.User), coreParams(o.Q))
		if d := time.Since(t0); d < best {
			cheapest, best = o, d
		}
	}
	pr.run("gpssn.query_self_us", func() float64 {
		const reps = 200
		viaDB, viaEngine := make([]float64, reps), make([]float64, reps)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			db.Query(cheapest.User, cheapest.Q)
			t1 := time.Now()
			base.Query(socialnet.UserID(cheapest.User), coreParams(cheapest.Q))
			viaDB[i], viaEngine[i] = us(t1.Sub(t0)), us(time.Since(t1))
		}
		return median(viaDB) - median(viaEngine)
	})
	return nil
}

// probeRoadnet times the distance kernels of all three backends on a copy
// of the road graph, and the oracle builds.
func (w *workload) probeRoadnet(pr *prober, ds *model.Dataset, rng *rand.Rand, targets int) {
	g := ds.Road.Clone()
	var cho *ch.Oracle
	var hlo *hl.Oracle
	pr.run("roadnet.ch.build_s", func() float64 {
		t0 := time.Now()
		cho = ch.Build(g)
		return time.Since(t0).Seconds()
	})
	pr.run("roadnet.hl.build_s", func() float64 { // label extraction on top of the CH
		t0 := time.Now()
		hlo = hl.FromCH(cho)
		return time.Since(t0).Seconds()
	})
	pr.m["roadnet.hl.label_entries_avg"] = hlo.AvgLabelSize()
	pr.m["roadnet.hl.bytes"] = float64(hlo.MemoryBytes())

	userAt := func() roadnet.Attach { return ds.Users[rng.Intn(len(ds.Users))].At }
	poiAt := func() roadnet.Attach { return ds.POIs[rng.Intn(len(ds.POIs))].At }
	p2p := func(n int) float64 {
		as, bs := make([]roadnet.Attach, n), make([]roadnet.Attach, n)
		for i := range as {
			as[i], bs[i] = userAt(), poiAt()
		}
		return timeEach(n, func(i int) { g.DistAttach(as[i], bs[i]) })
	}
	g.SetDistanceOracle(nil)
	pr.run("roadnet.dijkstra.p2p_us", func() float64 { return p2p(100) })
	g.SetDistanceOracle(cho)
	pr.run("roadnet.ch.p2p_us", func() float64 { return p2p(500) })
	g.SetDistanceOracle(hlo)
	pr.run("roadnet.hl.p2p_us", func() float64 { return p2p(2000) })

	lbl := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(lbl)
	pr.run("roadnet.attach_label_us", func() float64 {
		as := make([]roadnet.Attach, 2000)
		for i := range as {
			as[i] = userAt()
		}
		return timeEach(len(as), func(i int) { g.AttachLabel(as[i], lbl) })
	})
	// The target set refinement prepares per query: as many POI attachments
	// as a query has candidate anchors.
	targets = max(1, min(targets, len(ds.POIs)))
	atts := make([]roadnet.Attach, targets)
	for i, j := range rng.Perm(len(ds.POIs))[:targets] {
		atts[i] = ds.POIs[j].At
	}
	var tl *roadnet.TargetLabels
	pr.run("roadnet.prepare_targets_us", func() float64 {
		return timeEach(10, func(int) { tl = g.PrepareTargetLabels(atts) })
	})
	pr.m["roadnet.prepare_targets_ns_per_entry"] = pr.m["roadnet.prepare_targets_us"] * 1000 / float64(tl.NumEntries())
	out := make([]float64, tl.NumTargets())
	pr.run("roadnet.label_dists_us", func() float64 {
		return timeEach(200, func(int) {
			a := userAt()
			g.AttachLabel(a, lbl)
			g.LabelDists(lbl, a, tl, math.Inf(1), out)
		})
	})
}

// probeIndex times the R*-tree and the two index builds.
func (w *workload) probeIndex(pr *prober, eng *core.Engine, ds *model.Dataset, rng *rand.Rand) error {
	tree := eng.Road.Tree
	poiLoc := func() geo.Point { return ds.POIs[rng.Intn(len(ds.POIs))].Loc }
	pr.run("rtree.search_us", func() float64 {
		return timeEach(2000, func(int) {
			c := poiLoc()
			tree.Search(geo.Rect{Min: geo.Pt(c.X-2, c.Y-2), Max: geo.Pt(c.X+2, c.Y+2)}, func(rtree.Item) bool { return true })
		})
	})
	pr.run("rtree.nearest_us", func() float64 {
		return timeEach(2000, func(int) { tree.Nearest(ds.Users[rng.Intn(len(ds.Users))].Loc, 8) })
	})
	pr.run("index.road.euclid_ball_us", func() float64 {
		return timeEach(2000, func(int) { eng.Road.EuclidBall(poiLoc(), 2) })
	})
	items := make([]rtree.Item, len(ds.POIs))
	for i := range ds.POIs {
		items[i] = rtree.Item{Rect: geo.RectFromPoint(ds.POIs[i].Loc), ID: int32(i)}
	}
	pr.run("rtree.bulkload_ms", func() float64 {
		return timeEach(5, func(int) { rtree.New(rtree.Options{MaxEntries: 16}).BulkLoad(items) }) / 1000
	})
	// The same pivots and shapes gpssn.Open uses.
	cfg := gpssn.DefaultConfig()
	var road *index.RoadIndex
	var err error
	pr.run("index.road.build_s", func() float64 {
		t0 := time.Now()
		road, err = index.BuildRoad(ds, index.RoadConfig{
			Pivots: pivot.RandomRoad(ds.Road, cfg.RoadPivots, 1), RMin: cfg.RMin, RMax: cfg.RMax,
			MaxEntries: cfg.MaxEntries, PageSize: cfg.PageSize, PoolPages: cfg.PoolPages,
		})
		return time.Since(t0).Seconds()
	})
	if err != nil {
		return err
	}
	pr.run("index.social.build_s", func() float64 {
		t0 := time.Now()
		_, err = index.BuildSocial(ds, index.SocialConfig{
			RoadPivots: road.Pivots, SocialPivots: pivot.RandomSocial(ds.Social, cfg.SocialPivots, 2),
			LeafSize: cfg.LeafSize, Fanout: cfg.Fanout, PageSize: cfg.PageSize, PoolPages: cfg.PoolPages,
		})
		return time.Since(t0).Seconds()
	})
	return err
}

// probeFacade measures the answer cache, each update kind, Compact,
// snapshots and checkpoints on a durable DB of its own over the dataset as
// generated, so the workload's DB is not mutated; the serve hit path runs
// in front of the same DB.
func (w *workload) probeFacade(pr *prober, p *pass, sample []int, rng *rand.Rand, workDir string) error {
	dir, err := os.MkdirTemp(workDir, "probe-")
	if err != nil {
		return err
	}
	netw, err := w.generate()
	if err != nil {
		return err
	}
	cfg := hotConfig()
	cfg.WALPath = filepath.Join(dir, "db.wal")
	cfg.WALSync = "always"
	db, err := gpssn.Open(netw, cfg)
	if err != nil {
		return err
	}
	defer db.Close()

	// A cached answer: through the facade, through the handler, over
	// loopback.
	hitOp := p.ops[sample[0]]
	hitOp.Kind = opQuery
	hit := &hitOp
	db.Query(hit.User, hit.Q)
	pr.run("gpssn.cache.hit_us", func() float64 {
		return timeEach(2000, func(int) { db.Query(hit.User, hit.Q) })
	})
	srv := serve.New(db, serveConfig)
	body := requestBody(hit)
	pr.run("serve.handler_hit_us", func() float64 {
		return timeEach(300, func(int) {
			srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		})
	})
	url, stopHTTP, err := listenAndServe(srv.Handler())
	if err != nil {
		return err
	}
	conn := newHTTPTarget(url)
	pr.run("serve.http_hit_us", func() float64 {
		return timeEach(300, func(int) { conn.do(hit, nil, 0, 0) })
	})
	stopHTTP()

	// Each update kind, 16 calls each; the road pairs leave 32 portals in
	// the overlay.
	const each = 16
	before := db.WALStats()
	ops := (&workload{UpdateFrac: 1, Shapes: w.Shapes}).genOps(rng.Int63(), netw, 40*each)
	kinds := map[opKind][]op{}
	for _, o := range ops {
		if len(kinds[o.Kind]) < each {
			kinds[o.Kind] = append(kinds[o.Kind], o)
		}
	}
	timeKind := func(k opKind, fn func(o *op)) float64 {
		return timeEach(len(kinds[k]), func(i int) { fn(&kinds[k][i]) })
	}
	newUsers := make([]int, 0, each)
	pr.run("gpssn.update.add_poi_us", func() float64 {
		return timeKind(opAddPOI, func(o *op) { db.AddPOI(o.X, o.Y, o.Keywords...) })
	})
	pr.run("gpssn.update.add_user_us", func() float64 {
		return timeKind(opAddUser, func(o *op) {
			id, _ := db.AddUser(o.X, o.Y, o.Interests)
			newUsers = append(newUsers, id)
		})
	})
	pr.run("gpssn.update.add_friendship_us", func() float64 {
		return timeKind(opAddFriendship, func(o *op) { db.AddFriendship(o.User, o.Other) })
	})
	newVerts := make([]int, 0, each)
	pr.run("gpssn.update.add_road_vertex_us", func() float64 {
		return timeKind(opAddRoad, func(o *op) {
			v, _ := db.AddRoadVertex(o.X, o.Y)
			newVerts = append(newVerts, v)
		})
	})
	pr.run("gpssn.update.add_road_edge_us", func() float64 {
		i := 0
		return timeKind(opAddRoad, func(o *op) { db.AddRoadEdge(o.User, newVerts[i]); i++ })
	})
	after := db.WALStats() // an AddFriendship between friends is acknowledged without a record
	pr.m["wal.fsyncs_per_update"] = frac(after.Fsyncs-before.Fsyncs, after.Appends-before.Appends)
	// No checkpoint runs on this DB, so the log only grew.
	pr.m["wal.bytes_per_update"] = frac(after.Bytes-before.Bytes, after.Appends-before.Appends)

	ds := db.Network().Dataset()
	pr.run("roadnet.overlay.p2p_us", func() float64 {
		return timeEach(500, func(int) {
			ds.Road.DistAttach(ds.Users[rng.Intn(len(ds.Users))].At, ds.POIs[rng.Intn(len(ds.POIs))].At)
		})
	})
	if ov := db.RoadOverlayStats(); ov.Portals != 2*each {
		return fmt.Errorf("overlay probe: %d portals, want %d", ov.Portals, 2*each)
	}

	pr.run("gpssn.compact_ms", func() float64 {
		t0 := time.Now()
		err = db.Compact()
		return ms(time.Since(t0))
	})
	if err != nil {
		return err
	}
	snapPath := filepath.Join(dir, "probe.snap")
	pr.run("gpssn.snapshot.write_ms", func() float64 {
		t0 := time.Now()
		err = db.Snapshot(snapPath)
		return ms(time.Since(t0))
	})
	if err != nil {
		return err
	}
	if fi, err := os.Stat(snapPath); err == nil {
		pr.m["gpssn.snapshot.bytes"] = float64(fi.Size())
	}
	pr.run("gpssn.snapshot.open_ms", func() float64 {
		t0 := time.Now()
		var re *gpssn.DB
		if re, err = gpssn.OpenSnapshot(snapPath, hotConfig()); err == nil {
			defer re.Close()
		}
		return ms(time.Since(t0))
	})
	if err != nil {
		return err
	}
	pr.run("wal.checkpoint_ms", func() float64 {
		t0 := time.Now()
		err = db.Checkpoint(cfg.WALPath + ".ckpt")
		return ms(time.Since(t0))
	})
	return err
}

// probeWAL times the log itself under each flush policy, and the scan a
// recovery starts with.
func probeWAL(pr *prober, workDir string) error {
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return err
	}
	payload := make([]byte, 40) // about one AddPOI
	for _, pol := range []struct {
		name string
		sync wal.SyncPolicy
		n    int
	}{{"always", wal.SyncAlways, 200}, {"batch", wal.SyncBatch, 2000}, {"none", wal.SyncNone, 2000}} {
		path := filepath.Join(dir, pol.name+".wal")
		l, _, err := wal.Open(path, 1, wal.Options{Sync: pol.sync})
		if err != nil {
			return err
		}
		pr.run("wal.append_"+pol.name+"_us", func() float64 {
			return timeEach(pol.n, func(int) { _, err = l.Append(wal.KindAddPOI, payload) })
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if pol.sync == wal.SyncNone {
			pr.run("wal.replay_us_per_record", func() float64 {
				t0 := time.Now()
				var recs []wal.Record
				if l, recs, err = wal.Open(path, 1, wal.Options{Sync: pol.sync}); err != nil {
					return 0
				}
				d := time.Since(t0)
				err = l.Close()
				return us(d) / float64(len(recs))
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// sloP99Ms is serve_open's latency limit: p99 from the due time.
const sloP99Ms = 250

// probeLadder offers three fixed rates around the nominal one to the live
// server and reports the tail at each and the highest rate that holds the
// limit with no failure and no growing backlog.
func (w *workload) probeLadder(pr *prober, p *pass, seed int64, seconds int) {
	tgts := w.targets(p.inst, nil)
	stepS := w.LadderSecondsPer10s * float64(seconds) / 10
	for step, f := range []struct {
		name string
		mult float64
	}{{"r050", 0.5}, {"r100", 1}, {"r150", 1.5}} {
		rate := w.OpenLoopRate * f.mult
		n := max(1, int(rate*stepS))
		ops := w.genOps(seed+int64(step)+1, p.inst.base, n)
		r := runOpen(tgts, ops, arrivalSchedule(seed+int64(step)+1, n, rate), w.rootName(), nil)
		pr.run("serve.ladder."+f.name+".p99_ms", func() float64 {
			lat := make([]float64, n)
			failed := 0
			for i, d := range r.lat {
				lat[i] = ms(d)
				if r.outs[i].Err != "" {
					failed++
				}
			}
			sort.Float64s(lat)
			p99 := percentile(lat, 99)
			// A backlog is growing when requests late in the step wait
			// longer for a connection than early ones did.
			q := n / 4
			var first, last []float64
			for i := 0; i < q; i++ {
				first = append(first, ms(r.startDelay[i]))
				last = append(last, ms(r.startDelay[n-1-i]))
			}
			growing := q > 0 && mean(last) > mean(first)+50
			if p99 <= sloP99Ms && failed == 0 && !growing {
				pr.m["serve.slo_rate_rps"] = rate
			}
			return p99
		})
	}
}
