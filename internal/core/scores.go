package core

import (
	"fmt"
	"math"
)

// InterestScore returns the common-interest score of Eq. (1):
//
//	Interest_Score(u_j, u_k) = Σ_l w_l^(j).p · w_l^(k).p,
//
// the dot product of the two interest vectors.
func InterestScore(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("core: interest vector length mismatch %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// MatchScoreSet returns the matching score of Eq. (2) against a keyword
// union represented as a TopicSet:
//
//	Match_Score(u_j, R) = Σ_l w_l^(j).p · χ(w_l^(j) ∈ ∪_{o∈R} o.K).
func MatchScoreSet(interests []float64, kws TopicSet) float64 {
	if len(interests) != kws.Vocabulary() {
		panic(fmt.Sprintf("core: interests length %d != vocabulary %d", len(interests), kws.Vocabulary()))
	}
	s := 0.0
	for f, p := range interests {
		if p != 0 && kws.Has(f) {
			s += p
		}
	}
	return s
}

// PruneRegion is the user pruning region PR(u_j) of Section 3.2: the
// halfplane of interest vectors w with Interest_Score(u_j, w) < γ, which
// can be pruned safely (Lemma 3 / Corollary 1). The paper constructs it
// geometrically, through the point B = u_j.w and its mirror B' across the
// separating hyperplane, so that membership is a distance comparison
// between w and the pair (B, B'). Both of its cases are the score test
// Interest_Score(B, w) < γ in exact arithmetic, but in floating point the
// two squared distances can prune a vector scoring exactly γ. Contains
// evaluates the score test itself: one dot product, and the very
// predicate Baseline applies. The engine's leaf sweep applies the same
// test to the user topic table (userTopics.interestPrunable), with a
// bit-identical score; Contains is its dense form. The B/B' form is the
// property-tested reference in the package's tests.
type PruneRegion struct {
	gamma float64
	b     []float64
}

// NewPruneRegion builds PR(anchor) for the given interest vector and
// threshold γ. A zero anchor vector makes every score zero; the region then
// covers everything when γ > 0 and nothing otherwise.
func NewPruneRegion(anchor []float64, gamma float64) *PruneRegion {
	return &PruneRegion{gamma: gamma, b: append([]float64(nil), anchor...)}
}

// Gamma returns the region's interest threshold.
func (pr *PruneRegion) Gamma() float64 { return pr.gamma }

// Contains reports whether w falls in the pruning region, i.e. whether a
// user with interest vector w can be pruned with respect to the anchor
// (Corollary 1): Interest_Score(anchor, w) < γ. A vector exactly on the
// hyperplane (score == γ) is kept.
func (pr *PruneRegion) Contains(w []float64) bool {
	return InterestScore(pr.b, w) < pr.gamma
}

// ContainsMBR reports whether the whole interest MBR [lb, ub] lies in the
// pruning region, i.e. every vector in the box has score < γ (Lemma 8).
// Because the anchor has non-negative entries, the maximum score over the
// box is attained at ub, so the test reduces to Score(anchor, ub) < γ.
// This corresponds to the paper's maxdist/mindist comparison between the
// node MBR e_S.w and the points B, B'.
func (pr *PruneRegion) ContainsMBR(lb, ub []float64) bool {
	if len(ub) != len(pr.b) || len(lb) != len(pr.b) {
		panic("core: MBR dimensionality mismatch")
	}
	s := 0.0
	for i, bi := range pr.b {
		if bi >= 0 {
			s += bi * ub[i]
		} else {
			s += bi * lb[i] // defensive: anchors are non-negative in GP-SSN
		}
	}
	return s < pr.gamma
}

// InterestMetric selects how user similarity is computed. DotProduct is the
// paper's Eq. (1); Jaccard and Hamming are the extensions the paper leaves
// as future work (supported by direct threshold tests on leaf users and
// SimilarityUpperBound on index nodes; the pruning region applies to
// DotProduct only).
type InterestMetric int

const (
	// MetricDotProduct is Eq. (1), the default.
	MetricDotProduct InterestMetric = iota
	// MetricJaccard treats interests as weighted sets:
	// Σ min(a,b) / Σ max(a,b).
	MetricJaccard
	// MetricHamming is 1 − (normalized Hamming distance) over interest
	// supports: the fraction of topics on which both vectors agree about
	// being interested (p > 0) or not.
	MetricHamming
)

// String implements fmt.Stringer.
func (m InterestMetric) String() string {
	switch m {
	case MetricDotProduct:
		return "dot"
	case MetricJaccard:
		return "jaccard"
	case MetricHamming:
		return "hamming"
	default:
		return fmt.Sprintf("InterestMetric(%d)", int(m))
	}
}

// Similarity computes the selected metric between two interest vectors.
func Similarity(m InterestMetric, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("core: interest vector length mismatch %d != %d", len(a), len(b)))
	}
	switch m {
	case MetricDotProduct:
		return InterestScore(a, b)
	case MetricJaccard:
		num, den := 0.0, 0.0
		for i := range a {
			num += math.Min(a[i], b[i])
			den += math.Max(a[i], b[i])
		}
		if den == 0 {
			return 1 // two empty interest profiles are identical
		}
		return num / den
	case MetricHamming:
		agree := 0
		for i := range a {
			if (a[i] > 0) == (b[i] > 0) {
				agree++
			}
		}
		return float64(agree) / float64(len(a))
	default:
		panic(fmt.Sprintf("core: unknown interest metric %d", int(m)))
	}
}

// SimilarityUpperBound returns an upper bound of the metric between the
// anchor and any vector in the interest MBR [lb, ub]; used for index-level
// pruning under the non-default metrics.
func SimilarityUpperBound(m InterestMetric, anchor, lb, ub []float64) float64 {
	switch m {
	case MetricDotProduct:
		s := 0.0
		for i := range anchor {
			s += anchor[i] * ub[i]
		}
		return s
	case MetricJaccard:
		// num maximized at min(anchor, ub); den minimized at
		// max(anchor, lb).
		num, den := 0.0, 0.0
		for i := range anchor {
			num += math.Min(anchor[i], ub[i])
			den += math.Max(anchor[i], lb[i])
		}
		if den == 0 {
			return 1
		}
		return num / den
	case MetricHamming:
		agree := 0
		for i := range anchor {
			// A vector in the box can agree with the anchor on topic i
			// unless the box forces disagreement.
			if anchor[i] > 0 {
				if ub[i] > 0 {
					agree++
				}
			} else {
				if lb[i] == 0 {
					agree++
				}
			}
		}
		return float64(agree) / float64(len(anchor))
	default:
		panic(fmt.Sprintf("core: unknown interest metric %d", int(m)))
	}
}
