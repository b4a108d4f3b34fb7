package hashmix

import (
	"math/bits"
	"testing"
)

// Every hash table probe sequence, shard assignment, generated dataset and
// arrival process in the tree is a function of Mix64 and Stream, and the
// goldens pin their consequences only indirectly. These tests pin the
// mixer itself.

// TestMix64Vectors pins the finalizer on fixed inputs. Zero is its fixed
// point (every step is a xor-shift or a multiplication).
func TestMix64Vectors(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0},
		{1, 0x5692161d100b05e5},
		{2, 0xdbd238973a2b148a},
		{Golden, 0xe220a8397b1dcdaf},
		{^uint64(0), 0xb4d055fcf2cbbd7b},
		{0xdeadbeef, 0x4e062702ec929eea},
	} {
		if got := Mix64(tc.in); got != tc.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

// TestStreamMatchesSplitMix64Reference checks the generator against the
// outputs of Vigna's reference splitmix64.c for seeds 0 and 1234567.
func TestStreamMatchesSplitMix64Reference(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want []uint64
	}{
		{0, []uint64{16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444, 1961750202426094747}},
		{1234567, []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821}},
	} {
		s := Stream{State: tc.seed}
		for i, want := range tc.want {
			if got := s.Next(); got != want {
				t.Errorf("seed %d output %d = %d, want %d", tc.seed, i, got, want)
			}
		}
	}
}

// TestStreamZeroSeed: the zero value is a usable stream. Mix64(0) is 0,
// but Next adds the Weyl increment before mixing, so the first output is
// Mix64(Golden) and the stream never sticks at zero.
func TestStreamZeroSeed(t *testing.T) {
	var s Stream
	if got := s.Next(); got != Mix64(Golden) || got == 0 {
		t.Fatalf("first output of the zero stream = %#x, want Mix64(Golden) = %#x", got, Mix64(Golden))
	}
	if s.State != Golden {
		t.Fatalf("state after one step = %#x, want Golden", s.State)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Next()
		if v == 0 || seen[v] {
			t.Fatalf("zero-seeded stream produced %#x (zero or repeated) at step %d", v, i)
		}
		seen[v] = true
	}
}

// TestStreamsIndependent: streams from adjacent seeds — how the tree
// derives per-machine, per-tenant and per-client streams — share no
// output in their first thousand draws and differ in about half their
// bits position by position.
func TestStreamsIndependent(t *testing.T) {
	const streams, draws = 8, 1000
	seen := map[uint64]int{}
	var outs [streams][draws]uint64
	for seed := 0; seed < streams; seed++ {
		s := Stream{State: uint64(seed)}
		for i := 0; i < draws; i++ {
			v := s.Next()
			// Seeds one apart walk the same Weyl sequence, offset by the
			// inverse of Golden mod 2^64 steps: astronomically more than
			// a thousand, so within these draws nothing may repeat.
			if other, dup := seen[v]; dup {
				t.Fatalf("seed %d draw %d repeats a value of seed %d", seed, i, other)
			}
			seen[v] = seed
			outs[seed][i] = v
		}
	}
	for seed := 1; seed < streams; seed++ {
		diff := 0
		for i := 0; i < draws; i++ {
			diff += bits.OnesCount64(outs[seed][i] ^ outs[seed-1][i])
		}
		if mean := float64(diff) / draws; mean < 30 || mean > 34 {
			t.Errorf("seeds %d and %d differ in %.2f bits per draw on average, want about 32", seed-1, seed, mean)
		}
	}
}

// TestMix64AvalancheAndInjective: flipping any single input bit flips
// about half the output bits, and distinct inputs keep distinct outputs
// (the finalizer is a bijection; sharding and the hash tables rely on
// low-entropy keys spreading).
func TestMix64AvalancheAndInjective(t *testing.T) {
	seen := make(map[uint64]bool, 1<<16)
	for x := uint64(0); x < 1<<16; x++ {
		h := Mix64(x)
		if seen[h] {
			t.Fatalf("Mix64 collides on small keys at %d", x)
		}
		seen[h] = true
	}
	s := Stream{State: 42}
	for bit := 0; bit < 64; bit++ {
		flipped := 0
		const samples = 512
		for i := 0; i < samples; i++ {
			x := s.Next()
			flipped += bits.OnesCount64(Mix64(x) ^ Mix64(x^(1<<bit)))
		}
		if mean := float64(flipped) / samples; mean < 28 || mean > 36 {
			t.Errorf("input bit %d flips %.2f output bits on average, want about 32", bit, mean)
		}
	}
}

// TestStreamSkipMatchesNext: Skip(k) then Next returns what k+1 calls of
// Next return, from any state, including one whose Weyl sum wraps past
// 2^64 on the way. The TPC-H generator starts each part of a table at
// its first row's draw through Skip, so this is what keeps its parallel
// fill byte-identical to one sequential stream.
func TestStreamSkipMatchesNext(t *testing.T) {
	// The last seed's very first draw wraps past 2^64.
	wraps := ^uint64(0) - 5
	if wraps+Golden > wraps {
		t.Fatal("the wrapping seed does not wrap")
	}
	for _, seed := range []uint64{0, 0xC0FFEE, wraps} {
		for _, k := range []uint64{0, 1, 13, 1 << 20} {
			walked := Stream{State: seed}
			for i := uint64(0); i < k; i++ {
				walked.Next()
			}
			want := walked.Next()
			skipped := Stream{State: seed}
			skipped.Skip(k)
			if got := skipped.Next(); got != want || skipped.State != walked.State {
				t.Errorf("seed %#x: Skip(%d)+Next = %#x (state %#x), want %#x (state %#x)",
					seed, k, got, skipped.State, want, walked.State)
			}
		}
	}
}
