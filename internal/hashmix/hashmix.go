// Package hashmix provides the SplitMix64 finalizer, the 64→64 bit mixer
// shared by the simulator's hash tables (the operator join/aggregation
// tables in internal/db, the fleet's shard router) and the TPC-H
// generator's random stream. Keeping one copy keeps every consumer's
// probe behaviour in lockstep if the constants are ever tuned.
package hashmix

// Mix64 applies the SplitMix64 finalizer to x.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Golden is the 64-bit golden-ratio constant, SplitMix64's Weyl
// increment.
const Golden = 0x9E3779B97F4A7C15

// Stream is a full SplitMix64 generator: a Weyl sequence through the
// Mix64 finalizer. It is the one deterministic, stdlib-free randomness
// source shared by the TPC-H generator and the arrival processes; State
// is exported so callers control their own seeding discipline.
type Stream struct{ State uint64 }

// Next returns the stream's next 64-bit value.
func (s *Stream) Next() uint64 {
	s.State += Golden
	return Mix64(s.State)
}

// Skip advances the stream past k draws without computing them. A
// stream's k-th draw is Mix64(State + k·Golden), a function of k alone,
// so a consumer that draws a fixed count per item may start at any item
// (the splittable-generator property of Steele, Lea and Flood, OOPSLA
// 2014).
func (s *Stream) Skip(k uint64) { s.State += k * Golden }
