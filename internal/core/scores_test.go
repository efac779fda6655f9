package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpssn/internal/model"
)

func TestTopicSetBasics(t *testing.T) {
	s := NewTopicSet(70)
	for _, f := range []int{0, 5, 63, 64, 69} {
		if s.Has(f) {
			t.Errorf("topic %d should start absent", f)
		}
		s.Add(f)
		if !s.Has(f) {
			t.Errorf("topic %d should be present", f)
		}
	}
	if s.IsEmpty() {
		t.Error("set is not empty")
	}
	if NewTopicSet(3).IsEmpty() != true {
		t.Error("fresh set should be empty")
	}
	if s.Vocabulary() != 70 {
		t.Errorf("Vocabulary = %d", s.Vocabulary())
	}
	if s.SizeBytes() != 16 {
		t.Errorf("SizeBytes = %d, want 16", s.SizeBytes())
	}
}

func TestTopicSetPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad vocab": func() { NewTopicSet(0) },
		"add oob":   func() { NewTopicSet(3).Add(3) },
		"has oob":   func() { NewTopicSet(3).Has(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInterestScoreTable1(t *testing.T) {
	// Values from the paper's Table 1.
	u1 := []float64{0.7, 0.3, 0.7}
	u2 := []float64{0.2, 0.9, 0.3}
	u4 := []float64{0.9, 0.7, 0.7}
	if got := InterestScore(u1, u2); math.Abs(got-0.62) > 1e-12 {
		t.Errorf("Interest(u1,u2) = %v, want 0.62", got)
	}
	if got := InterestScore(u1, u4); math.Abs(got-1.33) > 1e-12 {
		t.Errorf("Interest(u1,u4) = %v, want 1.33", got)
	}
	if got := InterestScore(u1, u1); math.Abs(got-VecNorm2(u1)) > 1e-12 {
		t.Errorf("self score should equal squared norm")
	}
}

func TestInterestScoreSymmetricProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = sanitize01(raw[i])
			b[i] = sanitize01(raw[n+i])
		}
		return math.Abs(InterestScore(a, b)-InterestScore(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sanitize01(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Abs(math.Mod(v, 1))
}

func TestMatchScoreSet(t *testing.T) {
	interests := []float64{0.7, 0.3, 0.7}
	kws := TopicSetOf(3, 0, 2)
	if got := MatchScoreSet(interests, kws); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("MatchScoreSet = %v, want 1.4", got)
	}
	if got := MatchScoreSet(interests, NewTopicSet(3)); got != 0 {
		t.Errorf("empty keyword match = %v", got)
	}
}

func TestMatchScoreMonotoneInKeywords(t *testing.T) {
	// Lemma 2: a keyword superset never lowers the match score.
	f := func(raw []float64, kwsA, kwsB []uint8) bool {
		const d = 16
		interests := make([]float64, d)
		for i := 0; i < d && i < len(raw); i++ {
			interests[i] = sanitize01(raw[i])
		}
		small, big := NewTopicSet(d), NewTopicSet(d)
		for _, k := range kwsA {
			small.Add(int(k) % d)
			big.Add(int(k) % d)
		}
		for _, k := range kwsB {
			big.Add(int(k) % d)
		}
		return MatchScoreSet(interests, small) <= MatchScoreSet(interests, big)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeywordUnionAndMatchScore(t *testing.T) {
	pois := []*model.POI{
		{Keywords: []int{0}},
		{Keywords: []int{1, 2}},
	}
	u := &model.User{Interests: []float64{0.5, 0.4, 0.0, 0.9}}
	got := MatchScore(u, pois, 4)
	if math.Abs(got-0.9) > 1e-12 { // topics 0,1,2 covered: 0.5+0.4+0.0
		t.Errorf("MatchScore = %v, want 0.9", got)
	}
	ts := KeywordUnion(4, pois)
	if !ts.Has(0) || !ts.Has(1) || !ts.Has(2) || ts.Has(3) {
		t.Errorf("KeywordUnion wrong")
	}
}

func randInterest(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		if rng.Float64() < 0.5 {
			w[i] = rng.Float64()
		}
	}
	return w
}

// bbContains is the paper's geometric reading of the pruning region
// (Section 3.2), the reference Contains is checked against: B = anchor and
// its mirror B' = B·(2γ − ‖B‖²)/‖B‖² across the hyperplane score = γ, and
//
//	Case 1 (‖B‖² ≥ γ):  prune w iff dist(w, B') < dist(w, B)
//	Case 2 (‖B‖² < γ):  prune w iff dist(w, B') > dist(w, B).
func bbContains(anchor []float64, gamma float64, w []float64) bool {
	n2 := VecNorm2(anchor)
	if n2 == 0 {
		return gamma > 0 // all scores are 0
	}
	scale := (2*gamma - n2) / n2
	dB, dBp := 0.0, 0.0
	for i, b := range anchor {
		dB += (w[i] - b) * (w[i] - b)
		dBp += (w[i] - b*scale) * (w[i] - b*scale)
	}
	if n2 >= gamma {
		return dBp < dB
	}
	return dBp > dB
}

// Property (Corollary 1 soundness): the score form Contains agrees with the
// paper's B/B' distance form.
func TestPruneRegionMatchesScoreTest(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		d := 1 + rng.Intn(8)
		anchor := randInterest(rng, d)
		gamma := rng.Float64() * 2
		pr := NewPruneRegion(anchor, gamma)
		w := randInterest(rng, d)
		if VecNorm2(anchor) == 0 {
			continue // degenerate anchor tested separately
		}
		got := pr.Contains(w)
		want := bbContains(anchor, gamma, w)
		if got != want {
			t.Fatalf("trial %d: Contains=%v B/B'=%v anchor=%v gamma=%v w=%v",
				trial, got, want, anchor, gamma, w)
		}
	}
}

func TestPruneRegionZeroAnchor(t *testing.T) {
	zero, w := []float64{0, 0}, []float64{0.9, 0.9}
	pr := NewPruneRegion(zero, 0.5)
	if !pr.Contains(w) || !bbContains(zero, 0.5, w) {
		t.Error("zero anchor with gamma>0: everything scores 0 < gamma, prune")
	}
	pr0 := NewPruneRegion(zero, 0)
	if pr0.Contains(w) || bbContains(zero, 0, w) {
		t.Error("gamma=0: score 0 >= 0, keep")
	}
}

func TestPruneRegionBoundaryKept(t *testing.T) {
	// A vector scoring exactly γ must not be pruned (predicate is >=).
	anchor := []float64{1, 0}
	pr := NewPruneRegion(anchor, 0.5)
	onPlane := []float64{0.5, 0.7}
	if pr.Contains(onPlane) {
		t.Error("boundary vector must be kept")
	}
	if bbContains(anchor, 0.5, onPlane) {
		t.Error("boundary vector must be kept by the B/B' form too")
	}

	// Interest vectors of the real-like datasets are quantized (k/22 and
	// k/3 here), so scores land exactly on γ. This pair scores exactly 0.5,
	// yet rounding in the two squared distances makes the B/B' form prune
	// it; the score form keeps it, as the predicate requires.
	anchor = []float64{0.2727272727272727, 0, 0, 0, 0.36363636363636365, 0.18181818181818182, 0.22727272727272727, 0.18181818181818182, 0, 0, 0, 0.2727272727272727, 0, 0.36363636363636365, 0, 0, 0, 0, 0.3181818181818182, 0, 0, 0.2727272727272727, 0, 0, 0, 0.22727272727272727, 0, 0, 0, 0, 0, 0}
	onPlane = []float64{0.3333333333333333, 0, 0, 0, 0.3333333333333333, 0, 0, 0, 0, 0, 0, 0.6666666666666666, 0, 0, 0, 0, 0, 0, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.3333333333333333, 0}
	if got := InterestScore(anchor, onPlane); got != 0.5 {
		t.Fatalf("score %v, want exactly 0.5", got)
	}
	if NewPruneRegion(anchor, 0.5).Contains(onPlane) {
		t.Error("a vector scoring exactly γ must be kept")
	}
	if !bbContains(anchor, 0.5, onPlane) {
		t.Error("the B/B' form no longer prunes this tie; the example has gone stale")
	}
}

func TestPruneRegionContainsMBR(t *testing.T) {
	anchor := []float64{0.5, 0.5}
	pr := NewPruneRegion(anchor, 0.6)
	// Box whose best corner scores 0.5*0.4+0.5*0.4 = 0.4 < 0.6: prunable.
	if !pr.ContainsMBR([]float64{0, 0}, []float64{0.4, 0.4}) {
		t.Error("low box should be fully in the pruning region")
	}
	// Box reaching score 1.0: not prunable.
	if pr.ContainsMBR([]float64{0, 0}, []float64{1, 1}) {
		t.Error("high box must not be pruned")
	}
}

// Property (Lemma 8 soundness): if ContainsMBR says prune, every sampled
// vector inside the box is individually prunable.
func TestContainsMBRSoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 500; trial++ {
		d := 1 + rng.Intn(6)
		anchor := randInterest(rng, d)
		gamma := rng.Float64() * 1.5
		pr := NewPruneRegion(anchor, gamma)
		lb, ub := make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			a, b := rng.Float64(), rng.Float64()
			lb[i], ub[i] = math.Min(a, b), math.Max(a, b)
		}
		if !pr.ContainsMBR(lb, ub) {
			continue
		}
		for s := 0; s < 20; s++ {
			w := make([]float64, d)
			for i := range w {
				w[i] = lb[i] + rng.Float64()*(ub[i]-lb[i])
			}
			if !pr.Contains(w) {
				t.Fatalf("trial %d: MBR pruned but interior vector %v scores >= gamma", trial, w)
			}
		}
	}
}

func TestSimilarityMetrics(t *testing.T) {
	a := []float64{0.5, 0, 0.5}
	b := []float64{0.5, 0.5, 0}
	if got := Similarity(MetricDotProduct, a, b); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("dot = %v", got)
	}
	// Jaccard: min sum = 0.5, max sum = 1.5.
	if got := Similarity(MetricJaccard, a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("jaccard = %v", got)
	}
	// Hamming agreement: topic0 both >0, topic1 disagree, topic2 disagree.
	if got := Similarity(MetricHamming, a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("hamming = %v", got)
	}
	// Identical vectors.
	if Similarity(MetricJaccard, a, a) != 1 || Similarity(MetricHamming, a, a) != 1 {
		t.Error("self-similarity should be 1")
	}
	zero := []float64{0, 0, 0}
	if Similarity(MetricJaccard, zero, zero) != 1 {
		t.Error("empty/empty Jaccard defined as 1")
	}
}

func TestMetricString(t *testing.T) {
	if MetricDotProduct.String() != "dot" || MetricJaccard.String() != "jaccard" ||
		MetricHamming.String() != "hamming" {
		t.Error("metric names wrong")
	}
}

// Property: SimilarityUpperBound is a sound upper bound for vectors in the
// box, for every metric.
func TestSimilarityUpperBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	metrics := []InterestMetric{MetricDotProduct, MetricJaccard, MetricHamming}
	for trial := 0; trial < 400; trial++ {
		d := 1 + rng.Intn(6)
		anchor := randInterest(rng, d)
		lb, ub := make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			a, b := rng.Float64(), rng.Float64()
			lb[i], ub[i] = math.Min(a, b), math.Max(a, b)
			if rng.Float64() < 0.3 {
				lb[i] = 0 // boxes often touch zero in practice
			}
		}
		for _, m := range metrics {
			bound := SimilarityUpperBound(m, anchor, lb, ub)
			for s := 0; s < 10; s++ {
				w := make([]float64, d)
				for i := range w {
					w[i] = lb[i] + rng.Float64()*(ub[i]-lb[i])
				}
				if got := Similarity(m, anchor, w); got > bound+1e-9 {
					t.Fatalf("trial %d metric %v: similarity %v > bound %v", trial, m, got, bound)
				}
			}
		}
	}
}
