package cluster

// Grants returns the current per-machine grants, in machine order.
func (ca *ClusterArbiter) Grants() []int {
	out := make([]int, len(ca.grant))
	copy(out, ca.grant)
	return out
}
