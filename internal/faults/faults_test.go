package faults

import (
	"reflect"
	"strings"
	"testing"
)

// roundtrip asserts Parse(plan.String()) reproduces the plan.
func roundtrip(t *testing.T, p *Plan) {
	t.Helper()
	spec := p.String()
	got, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("roundtrip drifted:\nspec %q\nwant %+v\ngot  %+v", spec, p, got)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := Parse("seed 42; crash m1 @2s for 1.5s; stall m2 c0-3 @1s for 1s; slow m0 c* x8 @1s for 2s; link m2 +0.5ms drop 0.3 @3s for 2s")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Seed: 42, Faults: []Fault{
		{Kind: Crash, Machine: 1, Core: -1, CoreHi: -1, At: 2, For: 1.5},
		{Kind: Stall, Machine: 2, Core: 0, CoreHi: 3, At: 1, For: 1},
		{Kind: Slow, Machine: 0, Core: -1, CoreHi: -1, Factor: 8, At: 1, For: 2},
		{Kind: Link, Machine: 2, Core: -1, CoreHi: -1, Delay: 0.0005, Drop: 0.3, At: 3, For: 2},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parse mismatch:\nwant %+v\ngot  %+v", want, p)
	}
	roundtrip(t, p)
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !p.Empty() {
			t.Fatalf("Parse(%q) not empty: %+v", spec, p)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"crash @2s",                              // no machine
		"crash m1",                               // no start
		"crash m1 @2s for 0s",                    // zero duration
		"crash m1 @2s for -1s",                   // negative duration
		"slow m0 c1 @1s",                         // no factor
		"slow m0 c1 x1 @1s",                      // factor below 2
		"stall m0 @1s",                           // no core spec
		"stall m0 c3-1 @1s",                      // inverted range
		"link m0 @1s",                            // neither delay nor drop
		"link m0 drop 1.5 @1s",                   // drop > 1
		"link m0 drop NaN @1s",                   // non-finite
		"link m0 +99s @1s",                       // delay over limit
		"crash m1 @999999s",                      // start over limit
		"explode m1 @1s",                         // unknown kind
		"crash m1 @1s extra",                     // trailing tokens
		`[{"kind":"warp","at":1}]`,               // JSON is not a plan syntax
		`{"faults":[{"kind":"crash"`,             // nor is a JSON object
		`[{"kind":"slow","core":"q"}]`,           // bad core spec
		`[{"kind":"crash","machine":-1,"at":1}]`, // negative machine
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad plan", spec)
		}
	}
}

func TestValidateShape(t *testing.T) {
	p, err := Parse("crash m3 @1s; stall m0 c7 @1s")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4, 8); err != nil {
		t.Fatalf("plan should fit a 4x8 fleet: %v", err)
	}
	if err := p.Validate(3, 8); err == nil {
		t.Error("machine 3 accepted on a 3-machine fleet")
	}
	if err := p.Validate(4, 4); err == nil {
		t.Error("core 7 accepted on a 4-core machine")
	}
}

// s2c is a fixed test clock: 1000 cycles per second.
func s2c(sec float64) uint64 { return uint64(sec * 1000) }

func TestInjectorWindows(t *testing.T) {
	p, err := Parse("crash m1 @2s for 1s; slow m0 c2-3 x8 @1s for 3s; link m1 +0.1s drop 0.5 @0s")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Compile(2, 4, s2c)

	ch := in.Advance(0)
	if len(ch) != 1 || ch[0].Index != 2 || !ch[0].Start {
		t.Fatalf("cycle 0 changes: %+v", ch)
	}
	if got := in.LinkDelay(1); got != 100 {
		t.Fatalf("link delay = %d cycles, want 100", got)
	}
	if in.LinkDrop(1) != 0.5 || in.LinkDrop(0) != 0 {
		t.Fatal("link drop state wrong")
	}

	in.Advance(1500)
	if in.CoreFactor(0, 2) != 8 || in.CoreFactor(0, 3) != 8 {
		t.Fatal("slow window not applied to c2-3")
	}
	if in.CoreFactor(0, 0) != 1 || in.CoreFactor(1, 2) != 1 {
		t.Fatal("slow window leaked outside its range")
	}
	if in.Down(1) {
		t.Fatal("machine 1 down before its crash window")
	}

	in.Advance(2000)
	if !in.Down(1) || in.Down(0) {
		t.Fatal("crash window not applied at 2s")
	}

	ch = in.Advance(3000)
	if len(ch) != 1 || ch[0].Index != 0 || ch[0].Start {
		t.Fatalf("recovery edge: %+v", ch)
	}
	if in.Down(1) {
		t.Fatal("machine 1 still down after recovery")
	}

	in.Advance(4000)
	if in.CoreFactor(0, 2) != 1 {
		t.Fatal("slow window did not lift at 4s")
	}
	if !in.Done() {
		t.Fatal("injector not done after the last timed edge")
	}
	// The permanent link fault stays live forever.
	if in.LinkDrop(1) != 0.5 {
		t.Fatal("permanent link fault lifted")
	}
}

func TestInjectorStallAndOverlap(t *testing.T) {
	p, err := Parse("slow m0 c0 x4 @0s for 10s; stall m0 c0 @1s for 1s")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Compile(1, 2, s2c)
	in.Advance(500)
	if in.CoreFactor(0, 0) != 4 {
		t.Fatal("slow factor not applied")
	}
	in.Advance(1000)
	if in.CoreFactor(0, 0) != StallFactor {
		t.Fatal("overlapping stall must dominate the slow factor")
	}
	in.Advance(2000)
	if in.CoreFactor(0, 0) != 4 {
		t.Fatal("stall end must fall back to the still-live slow factor")
	}
}

func TestDropRollDeterministic(t *testing.T) {
	p, _ := Parse("seed 9; link m0 drop 0.5 @0s")
	a := p.Compile(1, 1, s2c)
	b := p.Compile(1, 1, s2c)
	a.Advance(0)
	b.Advance(0)
	drops := 0
	for n := uint64(0); n < 2000; n++ {
		da, db := a.DropRoll(0, n), b.DropRoll(0, n)
		if da != db {
			t.Fatalf("roll %d differs between identical injectors", n)
		}
		if da {
			drops++
		}
	}
	// The rate must track the probability (loose 10% band).
	if drops < 800 || drops > 1200 {
		t.Errorf("drop rate %d/2000 far from p=0.5", drops)
	}
	// Rolls are order-independent: the same n answers the same.
	if a.DropRoll(0, 7) != b.DropRoll(0, 7) {
		t.Error("re-rolling n=7 changed the answer")
	}
}

func TestNilInjectorIsHealthy(t *testing.T) {
	var in *Injector
	if in.Down(0) || in.CoreFactor(0, 0) != 1 || in.LinkDelay(0) != 0 ||
		in.LinkDrop(0) != 0 || in.DropRoll(0, 1) || !in.Done() {
		t.Fatal("nil injector must read as a healthy fleet")
	}
	if in.Advance(100) != nil {
		t.Fatal("nil injector advanced")
	}
}

func TestStringStable(t *testing.T) {
	spec := "seed 42; crash m1 @2s for 1.5s; link m2 +0.0005s drop 0.3 @3s for 2s"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != spec {
		t.Fatalf("canonical form drifted:\nwant %q\ngot  %q", spec, got)
	}
	if !strings.Contains((&Plan{}).String(), "") {
		t.Fatal("empty plan String must not panic")
	}
}
