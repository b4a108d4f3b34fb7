package numa

// RandomRanges lends the external tests (package numa_test, which may
// import the scheduler) the seeded access mix of accessrange_test.go.
var RandomRanges = randomRanges
