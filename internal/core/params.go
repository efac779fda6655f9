package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidParams is matched (errors.Is) by every Validate rejection, so
// the facade can lift parameter errors into its public ErrInvalidInput
// instead of misclassifying them as internal failures.
var ErrInvalidParams = errors.New("core: invalid parameters")

// Params are the GP-SSN query parameters of Definition 5 and Table 3.
type Params struct {
	// Gamma (γ) is the pairwise interest score threshold between any two
	// users of the returned group S.
	Gamma float64
	// Tau (τ) is the user group size |S|, including the query issuer.
	Tau int
	// Theta (θ) is the matching score threshold between each user in S and
	// the POI set R.
	Theta float64
	// R (r) bounds the POI set's spread: the returned R is the road-network
	// ball of radius r around an anchor POI, so any two members are within
	// road distance 2r as Definition 5 requires.
	R float64
	// Metric selects the user similarity (MetricDotProduct is the paper's
	// Eq. (1); Jaccard/Hamming are the future-work extensions).
	Metric InterestMetric
	// Budget optionally caps the work this query may spend. The zero value
	// is unlimited; see the Budget type for the graceful-degradation
	// semantics of a capped query.
	Budget Budget
}

// Validate checks the parameters against the index build bounds
// [rmin, rmax] for the radius.
func (p Params) Validate(rmin, rmax float64) error {
	if p.Tau < 1 {
		return fmt.Errorf("%w: tau must be >= 1, got %d", ErrInvalidParams, p.Tau)
	}
	// NaN comparisons are false both ways, so the thresholds are checked
	// with negated >= forms: a NaN gamma/theta/r must be rejected here, not
	// silently disable every pruning rule downstream.
	if !(p.Gamma >= 0) {
		return fmt.Errorf("%w: gamma must be >= 0, got %v", ErrInvalidParams, p.Gamma)
	}
	if !(p.Theta >= 0) {
		return fmt.Errorf("%w: theta must be >= 0, got %v", ErrInvalidParams, p.Theta)
	}
	if !(p.R > 0) || math.IsInf(p.R, 1) {
		return fmt.Errorf("%w: r must be a finite positive value, got %v", ErrInvalidParams, p.R)
	}
	if p.R < rmin || p.R > rmax {
		return fmt.Errorf("%w: r=%v outside the index build range [%v, %v]", ErrInvalidParams, p.R, rmin, rmax)
	}
	switch p.Metric {
	case MetricDotProduct, MetricJaccard, MetricHamming:
	default:
		return fmt.Errorf("%w: unknown interest metric %d", ErrInvalidParams, int(p.Metric))
	}
	return nil
}

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("γ=%.2f τ=%d θ=%.2f r=%.2f metric=%s", p.Gamma, p.Tau, p.Theta, p.R, p.Metric)
}
