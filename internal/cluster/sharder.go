// Package cluster scales the paper's single-machine elastic mechanism
// out to a simulated fleet: N workload rigs (each its own topology,
// scheduler, DB engine and elastic mechanism), a Sharder partitioning
// the TPC-H store across them, a Coordinator routing open-loop queries
// to shard owners (with scatter-gather and queue-aware load balancing),
// and a ClusterArbiter — a second control tier above the per-machine
// PrT nets — that moves whole cores between machines and charges an
// explicit migration latency for every core that travels.
//
// Determinism contract: machines tick in index order under one shared
// quantum, every routing and rebalance decision breaks ties by lowest
// machine index, and all randomness flows through SplitMix64 — a fleet
// run is bit-identical across repeats and at any worker count.
package cluster

import (
	"fmt"

	"elasticore/internal/hashmix"
)

// Sharder partitions a keyed store into shards and owns the shard ->
// machine placement. Keys hash to shards via SplitMix64 (stable under
// any machine count); shards map to machines as contiguous ranges, so
// growing the fleet re-homes whole ranges instead of rehashing keys.
//
// With R-way replication (NewReplicatedSharder) each shard's replica
// set is its home machine plus the R-1 successors modulo the fleet
// (chained declustering), and the *primary* — the machine serving the
// shard right now — is mutable: the health monitor re-homes a dead
// machine's primaries onto surviving replicas (Reassign) and restores
// them on recovery. With R = 1 the primary table reproduces the static
// Owner formula exactly, so unreplicated fleets are bit-identical to
// the pre-replication code.
type Sharder struct {
	shards   int
	machines int
	replicas int
	primary  []int
}

// NewSharder validates the partitioning shape: at least one machine,
// and at least as many shards as machines so every machine owns data.
func NewSharder(shards, machines int) (*Sharder, error) {
	return NewReplicatedSharder(shards, machines, 1)
}

// NewReplicatedSharder builds a sharder keeping R copies of every
// shard; replicas must fit the fleet (1 <= R <= machines).
func NewReplicatedSharder(shards, machines, replicas int) (*Sharder, error) {
	if machines < 1 {
		return nil, fmt.Errorf("cluster: machines %d < 1", machines)
	}
	if shards < machines {
		return nil, fmt.Errorf("cluster: shards %d < machines %d", shards, machines)
	}
	if replicas < 1 || replicas > machines {
		return nil, fmt.Errorf("cluster: replicas %d outside [1, %d machines]", replicas, machines)
	}
	s := &Sharder{shards: shards, machines: machines, replicas: replicas}
	s.primary = make([]int, shards)
	for shard := range s.primary {
		s.primary[shard] = s.Home(shard)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Sharder) Shards() int { return s.shards }

// Machines returns the machine count.
func (s *Sharder) Machines() int { return s.machines }

// Shard hashes a key to its shard.
func (s *Sharder) Shard(key uint64) int {
	return int(hashmix.Mix64(key) % uint64(s.shards))
}

// ShardsOf returns machine m's contiguous owned range [lo, hi).
func (s *Sharder) ShardsOf(machine int) (lo, hi int) {
	lo = machine * s.shards / s.machines
	hi = (machine + 1) * s.shards / s.machines
	return lo, hi
}

// Home returns the machine a shard's contiguous range maps to (the
// inverse of ShardsOf) — the shard's original owner and the anchor of
// its replica set, independent of any re-assignment.
func (s *Sharder) Home(shard int) int {
	return ((shard+1)*s.machines - 1) / s.shards
}

// Owner returns the machine currently serving a shard: the home until
// a Reassign moves it.
func (s *Sharder) Owner(shard int) int {
	return s.primary[shard]
}

// Replicas returns the replication degree R.
func (s *Sharder) Replicas() int { return s.replicas }

// ReplicaSet appends the shard's R replica machines to buf (home
// first, then its successors modulo the fleet) and returns it.
func (s *Sharder) ReplicaSet(shard int, buf []int) []int {
	home := s.Home(shard)
	for r := 0; r < s.replicas; r++ {
		buf = append(buf, (home+r)%s.machines)
	}
	return buf
}

// Owners appends the machines that can serve the shard in preference
// order — the live primary first, then the remaining replica-set
// members in set order — and returns buf.
func (s *Sharder) Owners(shard int, buf []int) []int {
	p := s.primary[shard]
	buf = append(buf, p)
	home := s.Home(shard)
	for r := 0; r < s.replicas; r++ {
		if m := (home + r) % s.machines; m != p {
			buf = append(buf, m)
		}
	}
	return buf
}

// ReplicatedOn reports whether machine m holds a copy of the shard.
func (s *Sharder) ReplicatedOn(shard, m int) bool {
	home := s.Home(shard)
	for r := 0; r < s.replicas; r++ {
		if (home+r)%s.machines == m {
			return true
		}
	}
	return false
}

// HomesOf counts the shards machine m keeps a copy of (its storage
// share); with R = 1 this equals the ShardsOf range length.
func (s *Sharder) HomesOf(m int) int {
	n := 0
	for shard := 0; shard < s.shards; shard++ {
		if s.ReplicatedOn(shard, m) {
			n++
		}
	}
	return n
}

// Reassign re-homes a shard's primary onto machine m (the health
// monitor's shard movement, after the data transfer completes).
func (s *Sharder) Reassign(shard, m int) {
	s.primary[shard] = m
}

// PrimariesOf appends the shards machine m currently serves, ascending.
func (s *Sharder) PrimariesOf(m int, buf []int) []int {
	for shard, p := range s.primary {
		if p == m {
			buf = append(buf, shard)
		}
	}
	return buf
}

// MachineFor routes a key to the machine owning its shard.
func (s *Sharder) MachineFor(key uint64) int {
	return s.Owner(s.Shard(key))
}

// KeyForShard synthesizes a key that hashes to the given shard, varying
// with salt — the inverse mapping workload generators need to aim
// traffic at a chosen shard (Zipf-skewed heat, hot-shard shifts). It
// scans keys from a salt-derived origin; with keys uniform over shards
// the expected scan length is the shard count.
func (s *Sharder) KeyForShard(shard int, salt uint64) uint64 {
	k := hashmix.Mix64(salt)
	for s.Shard(k) != shard {
		k++
	}
	return k
}
