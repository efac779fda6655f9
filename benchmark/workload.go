package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"gpssn"
	"gpssn/internal/gen"
	"gpssn/internal/roadnet"
)

// A workload is one dataset, one DB configuration and one seeded traffic
// mix. The dataset is a fixture: its generator seed is fixed per workload,
// so two runs of a workload always load the same network and --seed decides
// only the traffic (issuers, shapes, update script, arrival schedule) and
// the correctness twin. Varying the dataset with the seed too makes every
// latency metric wander by 8-12% between seeds, which no regression bound
// the contract allows could tell from a real change (README "Sizing").
//
// Op counts are fixed per workload and scale with --seconds (they are sized
// so the measured window lasts about that long on the 2-core reference
// box): fixed work makes sample counts, digests and exact counters repeat.
type workload struct {
	Name string
	Why  string

	// Dataset fixture.
	Zipf              bool
	Road, Users, POIs int
	DatasetSeed       int64
	MaxSocialDegree   int // 0: the generator's default (the paper's [1,10])
	Config            func() gpssn.Config
	Durable           bool // open with a WAL and auto-maintenance (churn_wal)
	Serve             bool // drive through internal/serve over loopback
	Clients           int
	// IssuerZipf draws issuers from Zipf(S, V) over the user ids instead of
	// distinct uniform ones.
	IssuerZipf          *zipfParams
	Shapes              []gpssn.Query
	TopKEvery           int     // every n-th query is QueryTopK(k=3); 0 = never
	UpdateFrac          float64 // share of ops that are updates
	WarmupPer10s        int     // warm-up ops at --seconds 10
	MeasuredPer10s      int     // measured ops at --seconds 10
	OpenLoopRate        float64 // req/s; serve_open only
	LadderSecondsPer10s float64 // seconds per ladder step at --seconds 10
}

type zipfParams struct{ S, V float64 }

var (
	// hotIssuers is steeper than the Zipf(1.3, v=8) the issue sketched for a
	// 10,000-op run: at the 1,200-14,400 ops that fit the run-time budget it
	// keeps the answer-cache hit rate near 90%, which puts the 95th
	// percentile in the middle of the misses instead of at their edge.
	hotIssuers = &zipfParams{S: 1.5, V: 1}
	// churnIssuers is the issue's: popular issuers recur, but rarely within
	// the four queries between two cache-flushing writes.
	churnIssuers = &zipfParams{S: 1.3, V: 8}
)

const topK = 3

// uniTau is the group size on the UNI dataset: 4, one below the paper's
// default. At tau=5 group enumeration on UNI's degree-[1,10] social graph has
// a tail to 150 ms-1 s against a 11 ms median (p99/p50 = 6, the slowest 1%
// of queries take 8-25% of the time), so which issuers a seed happens to
// draw moved query_p95_ms and throughput_ops_s by 14% between seeds; at
// tau=4 p99/p50 is 2.
const uniTau = 4

// hotShapes are the five shapes zipf_hot and serve_open draw from; they
// share r=2 so every shape reuses the same memoized balls. Groups go up to
// 5, not the 7 the issue sketched: on this dataset a miss at tau=7 has a
// tail to 1.3 s (p99 580 ms) and at tau=6 to 160 ms (p99 83 ms), against
// 25-30 ms for tau <= 5, and a handful of such misses decided
// query_p95_ms and throughput_ops_s of a whole run.
var hotShapes = []gpssn.Query{
	{GroupSize: 3, Gamma: 0.3, Theta: 0.5, Radius: 2},
	{GroupSize: 5, Gamma: 0.5, Theta: 0.5, Radius: 2},
	{GroupSize: 5, Gamma: 0.3, Theta: 0.7, Radius: 2},
	{GroupSize: 5, Gamma: 0.5, Theta: 0.7, Radius: 2},
	{GroupSize: 4, Gamma: 0.3, Theta: 0.5, Radius: 2},
}

// defaultProcs is GOMAXPROCS as the process found it.
var defaultProcs = runtime.GOMAXPROCS(0)

func hotConfig() gpssn.Config {
	c := gpssn.DefaultConfig()
	c.CacheSize = 4096
	return c
}

var workloads = []workload{
	{
		Name: "uni_cold",
		Why:  "distinct issuers, no answer cache, 5 radii x 2500 POIs overflow the 4096-ball memo: core refinement and the roadnet label kernel do all the work",
		Road: 7500, Users: 7500, POIs: 2500, DatasetSeed: 101,
		Config:  gpssn.DefaultConfig,
		Clients: 1,
		// The paper's default thresholds at five radii of its Table 3 range:
		// the (anchor, r) ball working set is 2500 x 5 keys against a
		// 4096-entry memo, the overflow the 30K-vertex dataset reaches with
		// one radius but cannot be measured at in the run-time budget.
		Shapes: []gpssn.Query{
			{GroupSize: uniTau, Gamma: 0.5, Theta: 0.5, Radius: 1},
			{GroupSize: uniTau, Gamma: 0.5, Theta: 0.5, Radius: 1.5},
			{GroupSize: uniTau, Gamma: 0.5, Theta: 0.5, Radius: 2},
			{GroupSize: uniTau, Gamma: 0.5, Theta: 0.5, Radius: 2.5},
			{GroupSize: uniTau, Gamma: 0.5, Theta: 0.5, Radius: 3},
		},
		WarmupPer10s: 50, MeasuredPer10s: 900,
	},
	{
		Name: "zipf_hot",
		Why:  "zipf issuers over 5 shapes with a 4096-entry answer cache: the working set fits every cache, so cache.go and core/shared.go do most of the work",
		Zipf: true, Road: 7500, Users: 7500, POIs: 2500, DatasetSeed: 102,
		Config:  hotConfig,
		Clients: 2, IssuerZipf: hotIssuers, Shapes: hotShapes, TopKEvery: 10,
		WarmupPer10s: 1000, MeasuredPer10s: 12000,
	},
	{
		Name: "churn_wal",
		Why:  "80% queries / 20% durable updates (fsync always) with background Compact and auto-checkpoint, then a crash and a timed recovery: the write side beside the read side",
		Road: 7500, Users: 7500, POIs: 2500, DatasetSeed: 103,
		Config: func() gpssn.Config {
			c := hotConfig()
			c.WALSync = "always" // the flush policy is part of the workload and never changes
			c.WALAutoCheckpointBytes = 2 << 10
			c.OverlayCompactPortals = 12
			return c
		},
		Durable: true, Clients: 1, IssuerZipf: churnIssuers,
		Shapes: []gpssn.Query{
			{GroupSize: uniTau, Gamma: 0.5, Theta: 0.5, Radius: 2},
			{GroupSize: 3, Gamma: 0.5, Theta: 0.5, Radius: 1},
			{GroupSize: uniTau, Gamma: 0.3, Theta: 0.5, Radius: 2},
		},
		UpdateFrac:   0.2,
		WarmupPer10s: 50, MeasuredPer10s: 900,
	},
	{
		Name: "serve_open",
		Why:  "the zipf_hot dataset and mix behind internal/serve on loopback, open loop at a fixed rate over 2 connections: the difference to zipf_hot is the serve layer and queueing",
		Zipf: true, Road: 7500, Users: 7500, POIs: 2500, DatasetSeed: 102,
		// The server keeps the refinement fan-out it has by default; main
		// gives the process one processor more for the load generator.
		Config: func() gpssn.Config {
			c := hotConfig()
			c.Parallelism = defaultProcs
			return c
		},
		Serve:   true,
		Clients: 2, IssuerZipf: hotIssuers, Shapes: hotShapes, TopKEvery: 10,
		WarmupPer10s: 2000, MeasuredPer10s: 1000,
		OpenLoopRate: 100, LadderSecondsPer10s: 3,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled sizes a per-10-seconds count to the requested run length.
func scaled(per10s int, seconds int) int {
	n := per10s * seconds / 10
	if n < 1 {
		n = 1
	}
	return n
}

// twin returns the scale-0.02 (of paper size) copy of w the correctness
// gate checks against brute force; its dataset does follow the seed.
func (w workload) twin(seed int64) workload {
	w.Road, w.Users, w.POIs = 600, 600, 200
	w.DatasetSeed = seed
	w.MaxSocialDegree = 4
	return w
}

func (w *workload) generate() (*gpssn.Network, error) {
	if w.MaxSocialDegree == 0 {
		return gpssn.GenerateSynthetic(gpssn.SyntheticOptions{
			Name: w.Name, Seed: w.DatasetSeed, Zipf: w.Zipf,
			RoadVertices: w.Road, Users: w.Users, POIs: w.POIs,
		})
	}
	dist := gen.Uniform
	if w.Zipf {
		dist = gen.Zipf
	}
	ds, err := gen.Synthetic(gen.Config{
		Name: w.Name, Seed: w.DatasetSeed, Dist: dist, MaxSocialDegree: w.MaxSocialDegree,
		RoadVertices: w.Road, SocialUsers: w.Users, POIs: w.POIs,
	})
	if err != nil {
		return nil, err
	}
	return gpssn.NetworkFromDataset(ds)
}

type opKind uint8

const (
	opQuery opKind = iota
	opTopK
	opAddPOI
	opAddUser       // AddUser + AddFriendship(new, existing)
	opAddFriendship // between two existing users
	opAddRoad       // AddRoadVertex + AddRoadEdge(existing, new)
)

func (k opKind) isQuery() bool { return k <= opTopK }

func (k opKind) String() string {
	return [...]string{"query", "topk", "add_poi", "add_user", "add_friendship", "add_road"}[k]
}

// op is one generated request. Updates carry everything they need except
// the ids the DB hands out at run time.
type op struct {
	Kind opKind
	User int // issuer; or the existing user/vertex an update links to
	Q    gpssn.Query
	// Update arguments.
	X, Y      float64
	Keywords  []int
	Interests []float64
	Other     int // second user of opAddFriendship
}

// updateMix is the share of each update kind among updates.
var updateMix = []struct {
	kind  opKind
	share float64
}{{opAddPOI, 0.30}, {opAddUser, 0.20}, {opAddFriendship, 0.25}, {opAddRoad, 0.25}}

// genOps generates ops of w's mix from seed, one run of ops per segment
// (warm-up, measured). Within a segment the composition is exact, not
// drawn: the update share, the split between update kinds and the split
// between query shapes are the same for every seed, and the seed decides the
// order, the issuers and the update arguments. (Drawing the composition too
// made the number of updates, and with it the number of background
// compactions, vary by +-15% between seeds.) base describes the dataset
// before any update: updates only reference ids below its counts, plus ids
// they create themselves, so the script never fails.
func (w *workload) genOps(seed int64, base *gpssn.Network, segments ...int) []op {
	rng := rand.New(rand.NewSource(seed))
	users := base.NumUsers()
	var issuer func() int
	if w.IssuerZipf != nil {
		z := rand.NewZipf(rng, w.IssuerZipf.S, w.IssuerZipf.V, uint64(users-1))
		issuer = func() int { return int(z.Uint64()) }
	} else {
		// Distinct issuers for as long as the population lasts.
		perm := rng.Perm(users)
		next := 0
		issuer = func() int { next++; return perm[(next-1)%users] }
	}
	road := base.Dataset().Road
	topics := base.NumTopics()
	near := func() (int, float64, float64) { // a point just off an existing intersection
		v := rng.Intn(base.NumIntersections())
		p := road.Vertex(roadnet.VertexID(v))
		return v, p.X + 0.01 + 0.02*rng.Float64(), p.Y + 0.01 + 0.02*rng.Float64()
	}
	var ops []op
	queries := 0
	for _, n := range segments {
		seg := make([]op, 0, n)
		updates := int(math.Round(float64(n) * w.UpdateFrac))
		for _, m := range updateMix[1:] {
			for i := int(math.Round(float64(updates) * m.share)); i > 0; i-- {
				seg = append(seg, op{Kind: m.kind})
			}
		}
		for len(seg) < updates { // the first kind takes what rounding left
			seg = append(seg, op{Kind: updateMix[0].kind})
		}
		for i := 0; len(seg) < n; i++ {
			seg = append(seg, op{Kind: opQuery, Q: w.Shapes[i%len(w.Shapes)]})
		}
		rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		for i := range seg {
			o := &seg[i]
			switch o.Kind {
			case opQuery:
				o.User = issuer()
				if queries++; w.TopKEvery > 0 && queries%w.TopKEvery == 0 {
					o.Kind = opTopK
				}
			case opAddPOI:
				_, o.X, o.Y = near()
				o.Keywords = []int{rng.Intn(topics), rng.Intn(topics)}
			case opAddUser:
				_, o.X, o.Y = near()
				o.Interests = make([]float64, topics)
				for t := 0; t < 4; t++ {
					o.Interests[rng.Intn(topics)] = 0.3 + 0.7*rng.Float64()
				}
				o.User = rng.Intn(users)
			case opAddFriendship:
				o.User, o.Other = rng.Intn(users), rng.Intn(users)
				if o.Other == o.User {
					o.Other = (o.User + 1) % users
				}
			case opAddRoad:
				o.User, o.X, o.Y = near()
			}
		}
		ops = append(ops, seg...)
	}
	return ops
}

// arrivalSchedule returns n due times at a fixed nominal rate. Gaps are
// seeded and uniform on [0.5, 1.5) of the mean gap: jittered enough that two
// connections see overlapping requests, without the bursts of exponential
// gaps, which at 1,000 requests decide the 95th percentile by themselves.
// The schedule is fixed before the run, so a slow server cannot slow the
// generator.
func arrivalSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += (0.5 + rng.Float64()) / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
