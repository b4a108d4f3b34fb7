package cluster

import "testing"

func TestSharderValidation(t *testing.T) {
	if _, err := NewReplicatedSharder(2, 0, 1); err == nil {
		t.Fatal("machines 0 accepted")
	}
	if _, err := NewReplicatedSharder(3, 4, 1); err == nil {
		t.Fatal("shards < machines accepted")
	}
	if _, err := NewReplicatedSharder(4, 4, 1); err != nil {
		t.Fatalf("shards == machines rejected: %v", err)
	}
}

// TestSharderPartition: ShardsOf covers [0, shards) exactly once across
// machines, every machine owns at least one shard, and Owner inverts it.
func TestSharderPartition(t *testing.T) {
	for _, tc := range []struct{ shards, machines int }{
		{1, 1}, {4, 2}, {5, 2}, {16, 8}, {17, 5}, {64, 16}, {63, 7},
	} {
		s, err := NewReplicatedSharder(tc.shards, tc.machines, 1)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for m := 0; m < tc.machines; m++ {
			lo, hi := s.ShardsOf(m)
			if lo != next {
				t.Fatalf("%d/%d: machine %d starts at %d, want %d", tc.shards, tc.machines, m, lo, next)
			}
			if hi <= lo {
				t.Fatalf("%d/%d: machine %d owns empty range [%d,%d)", tc.shards, tc.machines, m, lo, hi)
			}
			for sh := lo; sh < hi; sh++ {
				if got := s.Owner(sh); got != m {
					t.Fatalf("%d/%d: Owner(%d) = %d, want %d", tc.shards, tc.machines, sh, got, m)
				}
			}
			next = hi
		}
		if next != tc.shards {
			t.Fatalf("%d/%d: ranges end at %d, want %d", tc.shards, tc.machines, next, tc.shards)
		}
	}
}

// TestSharderKeyForShard: the synthesized key lands on the requested
// shard, and distinct salts explore distinct keys.
func TestSharderKeyForShard(t *testing.T) {
	s, _ := NewReplicatedSharder(16, 4, 1)
	seen := map[uint64]bool{}
	for shard := 0; shard < 16; shard++ {
		for salt := uint64(0); salt < 8; salt++ {
			k := s.KeyForShard(shard, salt)
			if got := s.Shard(k); got != shard {
				t.Fatalf("KeyForShard(%d, %d) = %d hashes to shard %d", shard, salt, k, got)
			}
			seen[k] = true
		}
	}
	if len(seen) < 64 {
		t.Fatalf("only %d distinct keys across 128 (shard, salt) pairs", len(seen))
	}
}

// FuzzSharder asserts route stability (same key always routes to the
// same shard and machine) and full coverage (the key's machine really
// owns the key's shard) for arbitrary shapes and keys.
func FuzzSharder(f *testing.F) {
	f.Add(uint64(1), 4, 2)
	f.Add(uint64(0), 1, 1)
	f.Add(uint64(0xDEADBEEF), 16, 8)
	f.Add(uint64(1<<63), 17, 5)
	f.Add(^uint64(0), 64, 16)
	f.Fuzz(func(t *testing.T, key uint64, shards, machines int) {
		if machines < 1 || machines > 64 || shards < machines || shards > 4096 {
			t.Skip()
		}
		s, err := NewReplicatedSharder(shards, machines, 1)
		if err != nil {
			t.Fatalf("valid shape rejected: %v", err)
		}
		shard := s.Shard(key)
		if shard < 0 || shard >= shards {
			t.Fatalf("Shard(%d) = %d out of [0,%d)", key, shard, shards)
		}
		if again := s.Shard(key); again != shard {
			t.Fatalf("Shard(%d) unstable: %d then %d", key, shard, again)
		}
		m := s.Owner(shard)
		if m < 0 || m >= machines {
			t.Fatalf("Owner(Shard(%d)) = %d out of [0,%d)", key, m, machines)
		}
		lo, hi := s.ShardsOf(m)
		if shard < lo || shard >= hi {
			t.Fatalf("machine %d serves key %d of shard %d but owns [%d,%d)", m, key, shard, lo, hi)
		}
	})
}
