package roadnet

// Entries exposes a TargetLabels' flattened arrays to the external test
// package.
func (t *TargetLabels) Entries() (hubs, slot []int32, dist []float64) {
	return t.hubs, t.slot, t.dist
}
