package core

import (
	"fmt"
	"math"
	"math/bits"

	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/socialnet"
)

// userTopics is the engine's user topic table: each user's interest vector
// as a bit mask of its nonzero topics and those topics' values in
// ascending topic order, one row per user. Indexed users sit at their I_S
// leaf position, so the users of a leaf are consecutive rows and the leaf
// sweep streams through one block; users appended later (AddUser) sit at
// row = id, past the indexed ones. Every interest and matching score on
// the query path reads this table — users average about 3.5 nonzero topics
// of 32 on the benchmark's datasets, so a kernel touches a few values, not d.
//
// The kernels return bit-identical results to the dense InterestScore,
// MatchScoreSet and Similarity. Interests are finite (validated to
// [0, 1]), so every term the dense loop adds for a topic one side lacks is
// an exact ±0, and s + (±0) == s for every partial sum s the loop can
// hold: it starts at +0, and a sum that starts at +0 is never -0. The
// terms that remain are added in the dense loop's ascending-topic order.
type userTopics struct {
	d, w  int       // vocabulary size and mask words per row, ⌈d/64⌉
	pos   []int32   // indexed user → row (its leaf position); read-only
	masks []uint64  // w words per row: topic f at bit f&63 of word f>>6
	off   []int32   // row → start of its values in vals; one entry per row, plus the end
	vals  []float64 // the rows' nonzero interests, ascending topic within a row
}

// topicRow is one user's row of the table: the nonzero-topic mask and the
// values of its set bits, in bit order.
type topicRow struct {
	mask []uint64
	vals []float64
}

// newUserTopics builds the table over every user of ds: the users of
// social's leaf order first, at their positions, then the users the index
// does not cover at row = id. A nil social index lays every user out at
// row = id.
func newUserTopics(ds *model.Dataset, social *index.SocialIndex) *userTopics {
	t := &userTopics{d: ds.NumTopics, w: (ds.NumTopics + 63) >> 6}
	n := len(ds.Users)
	order := make([]socialnet.UserID, 0, n)
	if social != nil {
		t.pos = social.Positions()
		order = order[:len(t.pos)]
		for u, i := range t.pos {
			order[i] = socialnet.UserID(u)
		}
	}
	for id := len(order); id < n; id++ {
		order = append(order, socialnet.UserID(id))
	}
	nnz := 0
	for _, u := range order {
		for _, v := range ds.Users[u].Interests {
			if v != 0 {
				nnz++
			}
		}
	}
	t.masks = make([]uint64, 0, n*t.w)
	t.off = make([]int32, 1, n+1)
	t.vals = make([]float64, 0, nnz)
	for _, u := range order {
		t.add(ds.Users[u].Interests)
	}
	return t
}

// add appends a row for interest vector w (length d).
func (t *userTopics) add(w []float64) {
	for k := 0; k < t.w; k++ {
		t.masks = append(t.masks, 0)
	}
	m := t.masks[len(t.masks)-t.w:]
	for f, v := range w {
		if v != 0 {
			m[f>>6] |= 1 << (f & 63)
			t.vals = append(t.vals, v)
		}
	}
	t.off = append(t.off, int32(len(t.vals)))
}

// at returns row i.
func (t *userTopics) at(i int) topicRow {
	return topicRow{mask: t.masks[i*t.w : (i+1)*t.w], vals: t.vals[t.off[i]:t.off[i+1]]}
}

// rowOf returns user u's row.
func (t *userTopics) rowOf(u socialnet.UserID) int {
	if int(u) < len(t.pos) {
		return int(t.pos[u])
	}
	return int(u)
}

// user returns user u's row.
func (t *userTopics) user(u socialnet.UserID) topicRow { return t.at(t.rowOf(u)) }

// similarity is Similarity over two rows.
func (t *userTopics) similarity(m InterestMetric, a, b topicRow) float64 {
	switch m {
	case MetricDotProduct:
		return dot(a, b)
	case MetricJaccard:
		return jaccard(a, b)
	case MetricHamming:
		diff := 0
		for k, ma := range a.mask {
			diff += bits.OnesCount64(ma ^ b.mask[k])
		}
		return float64(t.d-diff) / float64(t.d)
	default:
		panic(fmt.Sprintf("core: unknown interest metric %d", int(m)))
	}
}

// interestPrunable is the object-level user interest test (Lemma 3 /
// Corollary 1 for the dot product, a direct threshold test for the other
// metrics): the user w is pruned against the issuer q when their
// similarity falls below γ. For the dot product this is the pruning
// region's score form, PruneRegion.Contains.
func (t *userTopics) interestPrunable(p Params, q, w topicRow) bool {
	return t.similarity(p.Metric, q, w) < p.Gamma
}

// dot is InterestScore over two rows: the products of the topics both
// hold. A value's slot in its row is the number of set mask bits below
// its topic.
func dot(a, b topicRow) float64 {
	s := 0.0
	ia, ib := 0, 0
	for k, ma := range a.mask {
		mb := b.mask[k]
		for both := ma & mb; both != 0; both &= both - 1 {
			below := both&-both - 1
			s += a.vals[ia+bits.OnesCount64(ma&below)] * b.vals[ib+bits.OnesCount64(mb&below)]
		}
		ia += bits.OnesCount64(ma)
		ib += bits.OnesCount64(mb)
	}
	return s
}

// jaccard is Similarity's weighted Jaccard over two rows, walking the
// union of their topics (each row's slot advances with its own bits).
func jaccard(a, b topicRow) float64 {
	num, den := 0.0, 0.0
	ia, ib := 0, 0
	for k, ma := range a.mask {
		mb := b.mask[k]
		for m := ma | mb; m != 0; m &= m - 1 {
			bit := m & -m
			va, vb := 0.0, 0.0
			if ma&bit != 0 {
				va = a.vals[ia]
				ia++
			}
			if mb&bit != 0 {
				vb = b.vals[ib]
				ib++
			}
			num += math.Min(va, vb)
			den += math.Max(va, vb)
		}
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// match is MatchScoreSet over a row: the values of the row's topics in
// kws. kws must be over the table's vocabulary.
func (r topicRow) match(kws TopicSet) float64 {
	words := kws.Words()
	s, base := 0.0, 0
	for k, m := range r.mask {
		for hit := m & words[k]; hit != 0; hit &= hit - 1 {
			s += r.vals[base+bits.OnesCount64(m&(hit&-hit-1))]
		}
		base += bits.OnesCount64(m)
	}
	return s
}

// matchUb is Eq. (15), the matching score upper bound of Lemmas 1/6 over
// a keyword distance row (index.RoadIndex.KeywordDist, or a node's KwMin):
// the row's values whose topics lie within radius, i.e. its score against
// a superset of the radius-r ball's keywords. The radius carries the
// relative slack prunes allows, so a stored distance that rounded a few
// ulps past the ball kernel's value still counts. It adds in match's
// ascending topic order, and rounding is monotone, so a superset never
// scores below the exact ball and an equal set scores bit-identically.
func (r topicRow) matchUb(kwDist []float32, radius float64) float64 {
	radius *= 1 + 1e-9
	s, i := 0.0, 0
	for k, m := range r.mask {
		for ; m != 0; m &= m - 1 {
			if float64(kwDist[k<<6|bits.TrailingZeros64(m)]) <= radius {
				s += r.vals[i]
			}
			i++
		}
	}
	return s
}
