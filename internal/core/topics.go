// Package core implements the paper's primary contribution: the GP-SSN
// query semantics (Definition 5), the pruning rules of Section 3, the
// index-level pruning of Section 4.2, the query answering algorithm of
// Section 5 (Algorithm 2), and the Baseline competitor of Section 6.
package core

import "gpssn/internal/topics"

// TopicSet is an exact bitset over the topic vocabulary; see package
// topics. The alias keeps the paper's terminology (keyword sets such as
// a ball's keyword union) available from the core package.
type TopicSet = topics.Set

// NewTopicSet returns an empty set over a vocabulary of d topics.
func NewTopicSet(d int) TopicSet { return topics.NewSet(d) }
