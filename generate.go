package gpssn

import (
	"fmt"

	"gpssn/internal/gen"
)

// SyntheticOptions parameterize GenerateSynthetic, matching the synthetic
// data generation of the paper's Section 6.1. Zero values take the paper's
// defaults (Table 3 bold values: 30K road vertices, 30K users, 10K POIs).
type SyntheticOptions struct {
	// Name labels the dataset (defaults to a descriptive string).
	Name string
	// Seed makes generation deterministic.
	Seed int64
	// RoadVertices is |V(G_r)|; default 30000.
	RoadVertices int
	// Users is |V(G_s)|; default 30000.
	Users int
	// POIs is n; default 10000.
	POIs int
	// Topics is the vocabulary size d; default 32.
	Topics int
	// Zipf switches degree/keyword/interest draws from Uniform to Zipf
	// (the paper's UNI vs ZIPF datasets).
	Zipf bool
}

// GenerateSynthetic builds a synthetic spatial-social network (the UNI or
// ZIPF dataset family of the paper).
func GenerateSynthetic(o SyntheticOptions) (*Network, error) {
	dist := gen.Uniform
	if o.Zipf {
		dist = gen.Zipf
	}
	ds, err := gen.Synthetic(gen.Config{
		Name: o.Name, Seed: o.Seed,
		RoadVertices: o.RoadVertices, SocialUsers: o.Users,
		POIs: o.POIs, Topics: o.Topics, Dist: dist,
	})
	if err != nil {
		return nil, err
	}
	return &Network{ds: ds}, nil
}

// RealLikeKind selects one of the paper's two real spatial-social networks
// to emulate.
type RealLikeKind int

const (
	// BrightkiteCalifornia is the Bri+Cal dataset of Table 2 (40K users at
	// mean degree 10.3 over a 21K-vertex road network).
	BrightkiteCalifornia RealLikeKind = iota
	// GowallaColorado is the Gow+Col dataset of Table 2 (40K users at mean
	// degree 32.1 over a 30K-vertex road network).
	GowallaColorado
)

// GenerateRealLike builds a "real-like" stand-in for one of the paper's
// two real datasets: matched vertex counts, power-law social degrees with
// the published mean, low-degree planar road network, and check-in-derived
// interest vectors (see DESIGN.md for the substitution rationale). scale
// multiplies all object counts; use scale=1 for the published sizes.
func GenerateRealLike(kind RealLikeKind, seed int64, scale float64) (*Network, error) {
	var cfg gen.RealLikeConfig
	switch kind {
	case BrightkiteCalifornia:
		cfg = gen.BrightkiteCalifornia(seed, scale)
	case GowallaColorado:
		cfg = gen.GowallaColorado(seed, scale)
	default:
		return nil, fmt.Errorf("gpssn: unknown real-like dataset kind %d", int(kind))
	}
	ds, err := gen.RealLike(cfg)
	if err != nil {
		return nil, err
	}
	return &Network{ds: ds}, nil
}
