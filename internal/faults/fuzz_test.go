package faults

import (
	"reflect"
	"testing"
)

// FuzzFaultPlan throws arbitrary bytes at the spec parser (the JSON seeds
// are not a plan syntax and must be rejected, not crash it). The
// invariants: Parse never panics, and any accepted plan's canonical
// String form re-parses to an identical plan (so specs stored in CI
// configs or golden files survive a round through the renderer).
func FuzzFaultPlan(f *testing.F) {
	f.Add("crash m1 @2s for 1.5s")
	f.Add("seed 42; stall m2 c0-3 @1s for 1s; slow m0 c* x8 @1s for 2s")
	f.Add("link m2 +0.5ms drop 0.3 @3s for 2s; link m0 +1ms @0s")
	f.Add(`{"seed": 7, "faults": [{"kind": "crash", "machine": 1, "at": 2}]}`)
	f.Add(`[{"kind": "slow", "machine": 0, "core": "0-3", "factor": 8, "at": 1}]`)
	f.Add("slow m0 c1 x1 @1s")
	f.Add("crash m999999999999999999999 @1s")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: Parse(%q) of plan from %q: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("roundtrip drifted for %q:\ncanon %q\nfirst %+v\nsecond %+v", spec, canon, p, q)
		}
		// An accepted plan must also compile without panicking on a
		// shape it validates against.
		if p.Validate(4, 4) == nil {
			in := p.Compile(4, 4, func(sec float64) uint64 { return uint64(sec * 1e9) })
			in.Advance(^uint64(0))
		}
	})
}
