package core

import (
	"math"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
)

// Pending road edges — the clearance rule (docs/ALGORITHMS.md). Every road
// edge weighs its Euclidean length, and a road path from a point of the
// base G0 (roadnet base.go) that uses an edge appended since leaves G0 at
// an old portal.
// With E(x) the Euclidean distance from object x to the nearest old portal
// (0 for an object on a new edge), d_G(x, y) = min(d_G0(x, y), via) with
// via ≥ E(x) + E(y). Everything this engine derived from G0 — the POI label
// table and user labels, the pivot lower bounds, the keyword rows — stays
// exact or sound wherever that Euclidean term decides:
//
//   - a G0 label distance d is G's when d ≤ E(x)+E(y), and a +Inf at
//     bound b is when E(x)+E(y) > b (labelExact);
//   - LB_G(x, y) = min(LB_G0(x, y), E(x)+E(y)) (Lemmas 5 and 7, the
//     companion test);
//   - an anchor with E(a) > r has the same radius-r ball in G and G0, so
//     Lemma 1 holds for it, Lemma 6 for a node whose MBR is that far from
//     every old portal, and its ball is G0's (farFromPortals).
//
// Every comparison takes prunes' slack. With no pending edge there is no
// old portal, every clearance is +Inf and the static code runs unchanged.

// roadPending reports whether road edges are pending since the base: the
// clearance rule is then in force.
func (e *Engine) roadPending() bool { return e.DS.Road.PendingEdges() > 0 }

// clearance is E(x) for an object at a. An engine built over a graph that
// already had pending edges has indexes newer than the base its clearance
// would be measured against, so it takes 0 for every object: no G0
// quantity is trusted beyond what holds without the rule.
func (e *Engine) clearance(a roadnet.Attach) float64 {
	if !e.dyn.clean {
		return 0
	}
	return e.DS.Road.AttachClearance(a)
}

// rectClearance is E for every object inside r, an index node's MBR: the
// Euclidean distance from r to the nearest old portal (0 as for
// clearance). I_R holds indexed POIs only, none on a new edge.
func (e *Engine) rectClearance(r geo.Rect) float64 {
	if !e.dyn.clean {
		return 0
	}
	return e.DS.Road.ClearanceRect(r)
}

// farFromPortals reports whether every road path from a point of
// clearance c through an old portal is longer than r, with prunes' slack:
// the point's radius-r ball is then the same in G as in G0.
func farFromPortals(c, r float64) bool { return prunes(c, r) }

// labelExact reports whether a G0 distance d between two objects, computed
// under bound (+Inf when unbounded) is G's, given via = E(x)+E(y): a finite
// d is when it is no longer than the shortest path through an old portal
// can be, and +Inf (beyond bound, or unreachable in G0) when that path is
// beyond bound too. The via term takes prunes' slack the other way
// (boundKey), since it lower-bounds a float path length.
func labelExact(d, bound, via float64) bool {
	t := boundKey(via)
	if math.IsInf(t, 1) {
		return true
	}
	if math.IsInf(d, 1) {
		return bound < t
	}
	return d <= t
}
