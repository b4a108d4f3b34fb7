//go:build race

package db

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation changes allocation counts.
const raceEnabled = true
