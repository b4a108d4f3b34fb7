package elastic

import (
	"testing"

	"elasticore/internal/hashmix"
	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// grant_test.go keeps the loops that wrote a governed cpuset before
// Mechanism.Resize was its one writer — the tenant arbiter's growTo,
// shrinkTo and floor placement with nextFree's type switch, and the
// cluster arbiter's grow and shrink loops — as the oracle of the grant
// routine, and drives both over random sets on every zoo shape.

// refNextFree is the tenant's nextFree: a topology-aware mode ranks the
// free cores relative to the tenant's own set, the fixed-order modes scan
// for the first core outside occupied (their Next(occupied)).
func refNextFree(a Allocator, cur, occupied sched.CPUSet) (numa.CoreID, bool) {
	switch a.(type) {
	case *sequenceAllocator, *adaptiveAllocator:
		return a.Next(occupied, occupied)
	}
	return a.Next(cur, occupied)
}

// refNext is an allocator's Next(current), the call the cluster arbiter
// and the mechanism grew through: every mode saw current as its own set
// and as the occupied one.
func refNext(a Allocator, cur sched.CPUSet) (numa.CoreID, bool) {
	return a.Next(cur, cur)
}

// refShrinkTo is Tenant.shrinkTo's loop.
func refShrinkTo(a Allocator, cur sched.CPUSet, target int) sched.CPUSet {
	for cur.Count() > target {
		core, ok := a.Victim(cur)
		if !ok {
			break
		}
		cur = cur.Remove(core)
	}
	return cur
}

// refGrowTo is Tenant.growTo's loop: the grown set and the occupancy it
// returned.
func refGrowTo(a Allocator, cur sched.CPUSet, target int, occupied sched.CPUSet) (sched.CPUSet, sched.CPUSet) {
	for cur.Count() < target {
		core, ok := refNextFree(a, cur, occupied)
		if !ok {
			break
		}
		cur = cur.Add(core)
		occupied = occupied.Add(core)
	}
	return cur, occupied
}

// refFloor is Arbiter.Add's floor placement; ok is false where Add
// returned its "no free core" error.
func refFloor(a Allocator, occupied sched.CPUSet, minCores int) (sched.CPUSet, bool) {
	set := sched.CPUSet(0)
	for set.Count() < minCores {
		core, ok := refNextFree(a, set, occupied.Union(set))
		if !ok {
			return set, false
		}
		set = set.Add(core)
	}
	return set, true
}

// refClusterGrow is ClusterArbiter.applyDue's loop for one landing (and,
// from the empty set, New's initial placement).
func refClusterGrow(a Allocator, set sched.CPUSet, cores int) sched.CPUSet {
	for i := 0; i < cores; i++ {
		core, ok := refNext(a, set)
		if !ok {
			break
		}
		set = set.Add(core)
	}
	return set
}

// refClusterShrink is ClusterArbiter.Step's shrink loop.
func refClusterShrink(a Allocator, set sched.CPUSet, cancel, floor int) sched.CPUSet {
	for i := 0; i < cancel && set.Count() > floor; i++ {
		core, ok := a.Victim(set)
		if !ok {
			break
		}
		set = set.Remove(core)
	}
	return set
}

// grantMode is one allocation mode of the differential, named as its
// workload.Mode prints.
type grantMode struct {
	name  string
	alloc Allocator
}

// grantModes returns the six mechanism modes the differential covers; the
// adaptive mode reads a fixed random residency.
func grantModes(topo *numa.Topology, rng *hashmix.Stream) []grantMode {
	pages := make([]int, topo.NodeCount)
	for i := range pages {
		pages[i] = int(rng.Next() % 100)
	}
	return []grantMode{
		{"dense", NewDense(topo)},
		{"sparse", NewSparse(topo)},
		{"adaptive", NewAdaptive(topo, func() []int { return pages })},
		{"node-fill", NewNodeFill(topo)},
		{"hop-min", NewHopMin(topo)},
		{"scatter", NewScatter(topo)},
	}
}

// randomSet draws each core outside exclude with probability 1/denom.
func randomSet(rng *hashmix.Stream, total int, exclude sched.CPUSet, denom uint64) sched.CPUSet {
	s := sched.CPUSet(0)
	for c := 0; c < total; c++ {
		if !exclude.Contains(numa.CoreID(c)) && rng.Next()%denom == 0 {
			s = s.Add(numa.CoreID(c))
		}
	}
	return s
}

// TestResizeMatchesGrantLoops: on the five zoo shapes, for the six
// mechanism modes, Resize and Place pick exactly the cores the replaced
// loops picked, from seeded random current sets, neighbour occupancies and
// targets; the cgroup holds the result and the net's marking counts it.
// Every mode also keeps the allocator's share of the laws: Next grants a
// core of the machine outside occupied whenever one is free, Victim
// releases a core of current, and never the last one.
func TestResizeMatchesGrantLoops(t *testing.T) {
	rng := &hashmix.Stream{State: 0x6a09e667f3bcc908}
	for _, name := range numa.ZooNames() {
		topo := numa.Zoo()[name]
		total := topo.TotalCores()
		machine := numa.NewMachine(topo)
		s := sched.New(machine, sched.Config{})
		full := sched.FullSet(topo)
		for _, mode := range grantModes(topo, rng) {
			a := mode.alloc
			g := s.NewCGroup(mode.name)
			m, err := New(Config{Scheduler: s, CGroup: g, Allocator: a})
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got, want sched.CPUSet) {
				t.Helper()
				if got != want {
					t.Fatalf("%s/%s %s: Resize picked %v, the loop %v", name, mode.name, what, got, want)
				}
				if g.CPUs() != got {
					t.Fatalf("%s/%s %s: cgroup holds %v, Resize returned %v", name, mode.name, what, g.CPUs(), got)
				}
				if n := m.Net().NAlloc(); n != got.Count() {
					t.Fatalf("%s/%s %s: net marking %d for %d cores", name, mode.name, what, n, got.Count())
				}
			}
			for trial := 0; trial < 200; trial++ {
				cur := randomSet(rng, total, 0, 1+rng.Next()%4)
				if cur == 0 {
					cur = cur.Add(numa.CoreID(rng.Next() % uint64(total)))
				}
				others := randomSet(rng, total, cur, 1+rng.Next()%4)
				target := 1 + int(rng.Next()%uint64(total))

				// The allocator's laws, from the trial's (current, occupied).
				occupied := cur.Union(others)
				if c, ok := a.Next(cur, occupied); ok != (occupied != full) || ok && (c < 0 || int(c) >= total || occupied.Contains(c)) {
					t.Fatalf("%s/%s: Next(%v, %v) = %d, %v", name, mode.name, cur, occupied, c, ok)
				}
				if c, ok := a.Victim(cur); ok != (cur.Count() > 1) || ok && !cur.Contains(c) {
					t.Fatalf("%s/%s: Victim(%v) = %d, %v", name, mode.name, cur, c, ok)
				}
				one := sched.NewCPUSet(numa.CoreID(trial % total))
				if c, ok := a.Victim(one); ok {
					t.Fatalf("%s/%s: Victim(%v) released core %d", name, mode.name, one, c)
				}

				// The tenant arbiter: shrink phase, then grow phase.
				g.SetCPUs(cur)
				if cur.Count() > target {
					check("shrinkTo", m.Resize(target, 0), refShrinkTo(a, cur, target))
				} else {
					want, wantOcc := refGrowTo(a, cur, target, occupied)
					got := m.Resize(target, occupied)
					check("growTo", got, want)
					if occupied.Union(got) != wantOcc {
						t.Fatalf("%s/%s growTo: occupancy %v, the loop %v", name, mode.name, occupied.Union(got), wantOcc)
					}
				}

				// The tenant arbiter's floor: Add refuses exactly when the
				// free cores cannot hold it.
				want, ok := refFloor(a, others, target)
				if fits := total-others.Count() >= target; fits != ok {
					t.Fatalf("%s/%s floor %d beside %v: loop ok=%v, free-core check %v", name, mode.name, target, others, ok, fits)
				}
				if ok {
					check("floor", m.Place(target, others), want)
				}

				// The cluster arbiter: a landing, then a cancelled grant.
				g.SetCPUs(cur)
				k := int(rng.Next() % uint64(total+1))
				check("applyDue", m.Resize(cur.Count()+k, 0), refClusterGrow(a, cur, k))
				g.SetCPUs(cur)
				cancel := 1 + int(rng.Next()%uint64(total))
				check("shrink", m.Resize(max(cur.Count()-cancel, 1), 0), refClusterShrink(a, cur, cancel, 1))

				// New's initial placement.
				check("initial", m.Place(target, 0), refClusterGrow(a, 0, target))
			}
		}
	}
}
