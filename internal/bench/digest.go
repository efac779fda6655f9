package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"gpssn/internal/core"
	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// digestShape is one query shape of the digest: parameters and k.
type digestShape struct {
	name string
	p    core.Params
	k    int
}

// uniColdSpec is the benchmark's uni_cold dataset: a uniform synthetic
// network of 7,500 road vertices, 7,500 users and 2,500 POIs from seed
// 101, whatever -scale says.
var uniColdSpec = EnvSpec{Kind: UNI, Seed: 101, RoadVertices: 7500, Users: 7500, POIs: 2500}

// uniColdShapes are the benchmark's uni_cold shapes (τ=4, γ=θ=0.5 at five
// radii) plus top-3 at r=2.
func uniColdShapes() []digestShape {
	var out []digestShape
	for _, r := range []float64{1, 1.5, 2, 2.5, 3} {
		p := core.Params{Gamma: 0.5, Tau: 4, Theta: 0.5, R: r, Metric: core.MetricDotProduct}
		out = append(out, digestShape{name: "r" + strconv.FormatFloat(r, 'g', -1, 64), p: p, k: 1})
	}
	p := out[2].p
	return append(out, digestShape{name: "top3-r2", p: p, k: 3})
}

// runDigest prints one line per (dataset, shape, issuer): the answer —
// found, each result's cost bits, anchor, S and R — then the work
// counters, or CUT when the query ran past QueryDeadline. Two runs (a
// parent and a change, or one commit twice) are compared with
// scripts/digest-diff.sh: answers must match at any Parallelism, and at 1
// the counters say how the work moved. Datasets: uni_cold's at its shapes,
// then the same dataset with road edges pending (pendingScript, no
// Compact) at its five radii, then the four harness datasets at -scale
// with the Table 3 defaults.
func runDigest(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	par := max(cfg.Parallelism, 1)
	fmt.Fprintf(w, "# digest: scale=%g queries=%d seed=%d parallelism=%d\n", cfg.Scale, cfg.Queries, cfg.Seed, par)
	type job struct {
		label   string
		spec    EnvSpec
		shapes  []digestShape
		pending bool // a private build with pendingScript applied
	}
	jobs := []job{
		{"uni_cold", uniColdSpec, uniColdShapes(), false},
		{"uni_cold_pending", uniColdSpec, uniColdShapes()[:5], true},
	}
	for _, k := range allKinds {
		p := defaultParams()
		jobs = append(jobs, job{k.String(), specFor(k, cfg), []digestShape{{name: "tau5-r2", p: p, k: 1}}, false})
	}
	for _, j := range jobs {
		j.spec.Parallelism = par
		var env *Env
		var err error
		if j.pending {
			env, err = buildEnv(j.spec.withDefaults())
		} else {
			env, err = GetEnv(j.spec)
		}
		if err != nil {
			return err
		}
		users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
		if j.pending {
			if err := env.pendingScript(users); err != nil {
				return err
			}
		}
		for _, sh := range j.shapes {
			for _, u := range users {
				line, err := env.digestLine(sh, u)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s %s u=%d %s\n", j.label, sh.name, u, line)
			}
		}
	}
	return nil
}

// pendingScript adds road edges through the engine and leaves them
// pending (no Compact), near the first six issuers so their queries meet
// them: for each, a pendant vertex 0.3 from the first endpoint v of its
// home edge, joined to v; and for every second one also a chord from v to
// the vertex within Euclidean distance 1.5 whose road distance from v
// exceeds the straight line most, the chord that shortens the most paths.
func (e *Env) pendingScript(users []socialnet.UserID) error {
	g := e.DS.Road
	for i, u := range users[:min(len(users), 6)] {
		v := g.EdgeAt(e.DS.Users[u].At.Edge).U
		p := g.Vertex(v)
		nv, err := e.Engine.AddRoadVertex(geo.Pt(p.X+0.3, p.Y))
		if err != nil {
			return err
		}
		if _, err := e.Engine.AddRoadEdge(v, nv); err != nil {
			return err
		}
		if i%2 == 1 {
			continue
		}
		road := g.Dijkstra(v)
		best, gain := roadnet.VertexID(-1), 0.0
		for w := range road {
			wid := roadnet.VertexID(w)
			d := p.Dist(g.Vertex(wid))
			if wid == v || d > 1.5 || math.IsInf(road[w], 1) || g.HasEdge(v, wid) {
				continue
			}
			if gn := road[w] - d; gn > gain {
				best, gain = wid, gn
			}
		}
		if best >= 0 {
			if _, err := e.Engine.AddRoadEdge(v, best); err != nil {
				return err
			}
		}
	}
	return nil
}

// digestLine runs one query under QueryDeadline and formats its answer
// and counters.
func (e *Env) digestLine(sh digestShape, u socialnet.UserID) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), QueryDeadline)
	defer cancel()
	var results []core.Result
	var st core.Stats
	var err error
	if sh.k == 1 {
		var res core.Result
		res, st, err = e.Engine.QueryCtx(ctx, u, sh.p)
		if res.Found {
			results = []core.Result{res}
		}
	} else {
		results, st, err = e.Engine.QueryTopKCtx(ctx, u, sh.p, sh.k)
	}
	switch {
	case errors.Is(err, core.ErrDeadlineExceeded):
		return "CUT", nil
	case err != nil:
		return "", fmt.Errorf("digest: query user %d: %w", u, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "found=%d ans=", len(results))
	for i, r := range results {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%x@%d:S%s:R%s", math.Float64bits(r.MaxDist), r.Anchor, idList(r.S), idList(r.R))
	}
	if len(results) == 0 {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, " | pairs=%d mevals=%d cand=%d pages=%d same=%d",
		st.PairsEvaluated, st.MEvaluations, st.CandAnchors, st.PageReads, st.AnchorsSameBall)
	return b.String(), nil
}

// idList formats ids as [a,b,c].
func idList[T ~int32](ids []T) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	b.WriteByte(']')
	return b.String()
}
