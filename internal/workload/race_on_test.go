//go:build race

package workload

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation changes allocation counts.
const raceEnabled = true
