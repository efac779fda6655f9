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
// then the four harness datasets at -scale with the Table 3 defaults.
func runDigest(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	par := max(cfg.Parallelism, 1)
	fmt.Fprintf(w, "# digest: scale=%g queries=%d seed=%d parallelism=%d\n", cfg.Scale, cfg.Queries, cfg.Seed, par)
	type job struct {
		label  string
		spec   EnvSpec
		shapes []digestShape
	}
	jobs := []job{{"uni_cold", uniColdSpec, uniColdShapes()}}
	for _, k := range allKinds {
		p := defaultParams()
		jobs = append(jobs, job{k.String(), specFor(k, cfg), []digestShape{{name: "tau5-r2", p: p, k: 1}}})
	}
	for _, j := range jobs {
		j.spec.Parallelism = par
		env, err := GetEnv(j.spec)
		if err != nil {
			return err
		}
		users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
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
