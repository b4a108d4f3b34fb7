package numa

// RandomRanges lends the external tests (package numa_test, which may
// import the scheduler) the seeded access mix of accessrange_test.go.
var RandomRanges = randomRanges

// Zoo returns a fresh instance of every zoo topology keyed by canonical
// name.
func Zoo() map[string]*Topology {
	out := make(map[string]*Topology, len(zooEntries))
	for _, e := range zooEntries {
		out[e.name] = e.build()
	}
	return out
}

// Diameter returns the largest hop distance between any two nodes.
func (t *Topology) Diameter() int {
	max := 0
	for _, row := range t.Distance {
		for _, h := range row {
			if h > max {
				max = h
			}
		}
	}
	return max
}
