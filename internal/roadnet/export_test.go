package roadnet

// Entries exposes a TargetLabels' flattened arrays to the external test
// package.
func (t *TargetLabels) Entries() (hubs, slot []int32, dist []float64) {
	return t.hubs, t.slot, t.dist
}

// GridBuilds reports how many times the snap grid has been built from
// scratch, for the external test package.
func (g *Graph) GridBuilds() int { return g.gridBuilds }
