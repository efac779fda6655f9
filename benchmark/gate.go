package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"gpssn"
	"gpssn/internal/core"
	"gpssn/internal/socialnet"
)

// The correctness gates. A mismatch is a failed op: it counts into `failed`
// and fails the run.

const (
	baselineChecks = 32 // queries checked against brute force, top-k included
	replaySamples  = 25 // measured ops replayed on the reference DB
	// baselineTimeout skips a twin query whose brute-force enumeration
	// explodes (a dense neighbourhood at tau=7); skipped queries are
	// replaced, not counted.
	baselineTimeout = 2 * time.Second
)

// sameCost and sameAnswer are the equality rule of the gates. Costs agree up
// to floating-point association order (the repository's own sameCost,
// choracle_test.go): the three distance backends and the delta overlay sum
// the same edge weights in different orders. With equal anchors the POI set
// must be identical. The user group is not compared: several groups can
// reach the same optimal cost, and which one the engine keeps follows its
// enumeration order, which differs between a live and a recovered DB and
// between hl/parallel and dijkstra/sequential (seen on zipf_hot seed 10 and
// churn_wal seed 9: same anchor, same cost to the last bit, one user
// swapped). With different anchors only an exact cost tie is accepted.
func sameCost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	lim := 1e-9
	if a > 1 {
		lim *= a
	}
	return d <= lim
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameAnswer(a, b *gpssn.Answer) bool {
	if !sameCost(a.MaxDistance, b.MaxDistance) || len(a.Users) != len(b.Users) {
		return false
	}
	return a.Anchor != b.Anchor || sameInts(a.POIs, b.POIs)
}

func sameOutcome(a, b *outcome) bool {
	if a.Found != b.Found || len(a.Answers) != len(b.Answers) {
		return false
	}
	for i := range a.Answers {
		if !sameAnswer(&a.Answers[i], &b.Answers[i]) {
			return false
		}
	}
	return true
}

// answersDigest hashes every measured op's outcome in op order: found or
// not, how many answers, and each answer's group size and cost to 9
// significant digits. It leaves out what the engine does not repeat from run
// to run on one commit: which of several groups or anchors tied at the
// optimal cost it returns (see sameAnswer; with Parallelism 2, uni_cold seed
// 1 op 567 came back with anchor 1968 in one pass and 1969 in the next, same
// POI set, same cost), and the last bits of a cost, which on churn_wal depend
// on whether the background rebuild had landed.
func answersDigest(ops []op, outs []outcome) string {
	h := sha256.New()
	for i := range outs {
		o := &outs[i]
		fmt.Fprintf(h, "%d %s %t %v;", i, ops[i].Kind, o.Found, o.IDs)
		for _, a := range o.Answers {
			fmt.Fprintf(h, "%d %s;", len(a.Users), strconv.FormatFloat(a.MaxDistance, 'g', 9, 64))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// firstDifference names the first op whose outcome differs between two
// passes over the same stream in anything the digest covers.
func firstDifference(ops []op, a, b []outcome) string {
	for i := range a {
		if answersDigest(ops[i:i+1], a[i:i+1]) != answersDigest(ops[i:i+1], b[i:i+1]) || a[i].Err != b[i].Err {
			return fmt.Sprintf("op %d (%s user %d %+v): %+v %q vs %+v %q", i, ops[i].Kind, ops[i].User, ops[i].Q, a[i].Answers, a[i].Err, b[i].Answers, b[i].Err)
		}
	}
	return "no single op differs"
}

// gateResult is how many checks a gate made and how many disagreed.
type gateResult struct {
	Checked, Failed int
	First           string // first disagreement, for the log
}

func (g *gateResult) fail(format string, args ...any) {
	if g.Failed == 0 {
		g.First = fmt.Sprintf(format, args...)
	}
	g.Failed++
}

func (g *gateResult) add(o gateResult) {
	if g.Failed == 0 && o.Failed > 0 {
		g.First = o.First
	}
	g.Checked += o.Checked
	g.Failed += o.Failed
}

// baselineGate runs w's mix on its scale-0.02 twin, through the same target
// the measured run uses, and checks every query answer against the
// brute-force core.Baseline on the twin's current dataset.
func (w *workload) baselineGate(seed int64, workDir string) (gateResult, error) {
	var g gateResult
	tw := w.twin(seed)
	if !w.Durable {
		tw.TopKEvery = 5 // every static mix is checked on top-k too
	}
	// churn_wal's mix has no top-k and its twin adds none: QueryTopK on a DB
	// with pending road deltas can drop one of two anchors tied at the best
	// cost. This gate found it (twin seed 5: user 0, tau=4, gamma=0.5, r=2
	// after 2 road vertices + 2 edges: the live DB returns anchors 200, 33,
	// 34 where Baseline and the same DB after Compact return 154, 200, 33,
	// anchors 154 and 200 tied at 7.4433...). That is a defect of the
	// product, not of the benchmark, and a PR that defines the benchmark
	// changes no product code; until it is fixed a top-k check here would
	// fail one seed in ten on a path the workload never measures.
	dir, err := os.MkdirTemp(workDir, "twin-")
	if err != nil {
		return g, err
	}
	in, err := tw.setup(dir)
	if err != nil {
		return g, fmt.Errorf("twin setup: %w", err)
	}
	defer in.close()
	tgt := tw.targets(in, nil)[0]
	ops := tw.genOps(seed, in.base, 8*baselineChecks)
	for i := range ops {
		if g.Checked >= baselineChecks {
			break
		}
		o := &ops[i]
		out := tgt.do(o, nil, 0, 0)
		if out.Err != "" {
			g.Checked++
			g.fail("twin op %d (%s): %s", i, o.Kind, out.Err)
			continue
		}
		if !o.Kind.isQuery() {
			continue
		}
		for in.db.Maintaining() { // let a background Compact finish swapping the network
			time.Sleep(time.Millisecond)
		}
		oracle := &core.Baseline{DS: in.db.Network().Dataset()}
		k := 1
		if o.Kind == opTopK {
			k = topK
		}
		ctx, cancel := context.WithTimeout(context.Background(), baselineTimeout)
		want, _, err := oracle.QueryTopKCtx(ctx, socialnet.UserID(o.User), coreParams(o.Q), k)
		cancel()
		if err != nil {
			continue
		}
		g.Checked++
		if len(want) != len(out.Answers) {
			g.fail("twin op %d (%s user %d %+v): %d answers, Baseline %d", i, o.Kind, o.User, o.Q, len(out.Answers), len(want))
			continue
		}
		for j := range want {
			if !sameCost(out.Answers[j].MaxDistance, want[j].MaxDist) {
				g.fail("twin op %d (%s user %d %+v) answer %d: cost %v, Baseline %v", i, o.Kind, o.User, o.Q, j, out.Answers[j].MaxDistance, want[j].MaxDist)
				break
			}
		}
	}
	if g.Checked < baselineChecks {
		g.fail("only %d of %d twin queries could be checked against Baseline", g.Checked, baselineChecks)
	}
	return g, nil
}

// referenceConfig is the slowest, simplest path through the system: plain
// Dijkstra, sequential refinement, no memo, no answer cache.
func referenceConfig() gpssn.Config {
	c := gpssn.DefaultConfig()
	c.DistanceOracle = "dijkstra"
	c.Parallelism = 1
	c.DisableSharedWork = true
	return c
}

// sampleQueries picks up to n distinct query ops, seeded.
func sampleQueries(ops []op, n int, seed int64) []int {
	var idx []int
	for i := range ops {
		if ops[i].Kind.isQuery() {
			idx = append(idx, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if len(idx) > n {
		idx = idx[:n]
	}
	sort.Ints(idx)
	return idx
}

// referenceGate replays sampled measured queries of a static workload on a
// reference DB over the same dataset and compares them with what the
// measured run returned.
func (w *workload) referenceGate(p *pass, seed int64) (gateResult, error) {
	var g gateResult
	netw, err := w.generate()
	if err != nil {
		return g, err
	}
	ref, err := gpssn.Open(netw, referenceConfig())
	if err != nil {
		return g, fmt.Errorf("reference DB: %w", err)
	}
	defer ref.Close()
	tgt := &libTarget{db: ref}
	for _, i := range sampleQueries(p.ops, replaySamples, seed) {
		want := tgt.do(&p.ops[i], nil, 0, 0)
		g.Checked++
		if want.Err != "" {
			g.fail("reference replay of op %d: %s", i, want.Err)
		} else if p.outs[i].Err == "" && !sameOutcome(&p.outs[i], &want) {
			g.fail("op %d (%s user %d %+v): measured %+v, reference %+v", i, p.ops[i].Kind, p.ops[i].User, p.ops[i].Q, p.outs[i].Answers, want.Answers)
		}
	}
	return g, nil
}
