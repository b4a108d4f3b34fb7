// Package sched is a deterministic model of the operating-system scheduler
// the paper's mechanism steers: per-core run queues, the node-local
// placement policy, periodic load balancing with task stealing and thread
// migration, and the cgroup/cpuset facility through which the elastic
// mechanism hands the OS only a subset of cores (Section III, Figure 1).
//
// The simulation is time-stepped: virtual time advances in fixed scheduler
// quanta; each quantum every allowed core runs the thread at the head of
// its queue, charging cycles and memory accesses to the numa.Machine.
package sched

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"elasticore/internal/numa"
)

// CPUSet is a bitmask of cores, the unit the mechanism hands to the OS
// ("only the black boxes can be accessed by the OS", Figure 12). The zero
// value is the empty set. Machines up to 64 cores are supported.
type CPUSet uint64

// NewCPUSet returns a set containing the given cores.
func NewCPUSet(cores ...numa.CoreID) CPUSet {
	var s CPUSet
	for _, c := range cores {
		s = s.Add(c)
	}
	return s
}

// FullSet returns the set of all cores in the topology.
func FullSet(t *numa.Topology) CPUSet {
	if t.TotalCores() >= 64 {
		panic("sched: CPUSet supports at most 63 cores")
	}
	return CPUSet(1)<<uint(t.TotalCores()) - 1
}

// Add returns the set with core c included.
func (s CPUSet) Add(c numa.CoreID) CPUSet { return s | 1<<uint(c) }

// Remove returns the set with core c excluded.
func (s CPUSet) Remove(c numa.CoreID) CPUSet { return s &^ (1 << uint(c)) }

// Contains reports whether core c is in the set.
func (s CPUSet) Contains(c numa.CoreID) bool { return s&(1<<uint(c)) != 0 }

// Count returns the number of cores in the set.
func (s CPUSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Cores returns the member cores in ascending order.
func (s CPUSet) Cores() []numa.CoreID {
	return s.AppendCores(make([]numa.CoreID, 0, s.Count()))
}

// AppendCores appends the member cores in ascending order to dst, letting
// per-period callers enumerate a set into a stack buffer.
func (s CPUSet) AppendCores(dst []numa.CoreID) []numa.CoreID {
	for v := uint64(s); v != 0; v &= v - 1 {
		dst = append(dst, numa.CoreID(bits.TrailingZeros64(v)))
	}
	return dst
}

// Intersect returns the intersection of two sets.
func (s CPUSet) Intersect(o CPUSet) CPUSet { return s & o }

// Union returns the union of two sets.
func (s CPUSet) Union(o CPUSet) CPUSet { return s | o }

// IsEmpty reports whether the set has no cores.
func (s CPUSet) IsEmpty() bool { return s == 0 }

// NodesTouched returns the distinct nodes with at least one member core.
func (s CPUSet) NodesTouched(t *numa.Topology) []numa.NodeID {
	seen := make(map[numa.NodeID]bool)
	var out []numa.NodeID
	for _, c := range s.Cores() {
		n := t.NodeOf(c)
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnNode returns the member cores belonging to node n as a set. A node's
// cores are the contiguous ids CoreOf(n, 0..CoresPerNode-1), so this is a
// mask, not an enumeration.
func (s CPUSet) OnNode(t *numa.Topology, n numa.NodeID) CPUSet {
	return s & ((1<<uint(t.CoresPerNode) - 1) << uint(t.CoreOf(n, 0)))
}

// String renders the set in cpuset-list style, e.g. "0-3,8".
func (s CPUSet) String() string {
	cores := s.Cores()
	if len(cores) == 0 {
		return "(empty)"
	}
	var b strings.Builder
	i := 0
	for i < len(cores) {
		j := i
		for j+1 < len(cores) && cores[j+1] == cores[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", cores[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", cores[i], cores[j])
		}
		i = j + 1
	}
	return b.String()
}
