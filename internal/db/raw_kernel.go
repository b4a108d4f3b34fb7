package db

import (
	"fmt"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// raw_kernel.go is the stand-in for the paper's hand-coded C version of
// TPC-H Q6 (Figure 3, bottom): a single program spawning K pthreads, each
// running one fused scan loop over disjoint slices of the query's columns.
// Unlike the Volcano engine, there is no per-operator thread fan-out and
// no materialized intermediates, so the OS finds data affinity far more
// easily — the Fig 4 baseline.

// RawAffinity selects how the raw kernel pins its threads, matching the
// pthread_setaffinity_np policies of Section II-B.
type RawAffinity int

const (
	// RawOS leaves the threads unpinned (policy "OS/C").
	RawOS RawAffinity = iota
	// RawDense pins all threads to the cores of a single node
	// (policy "Dense/C").
	RawDense
	// RawSparse pins thread k to a core on node k mod NodeCount
	// (policy "Sparse/C").
	RawSparse
)

// String implements fmt.Stringer.
func (a RawAffinity) String() string {
	switch a {
	case RawDense:
		return "dense"
	case RawSparse:
		return "sparse"
	default:
		return "os"
	}
}

// RawQ6 is one execution of the fused Q6 kernel: scans shipdate, discount,
// quantity and extendedprice slices in one pass and accumulates revenue.
type RawQ6 struct {
	Revenue   float64
	remaining int // unfinished threads

	shipdate, quantity *BAT
	discount, price    *BAT
}

// Done reports whether all kernel threads have finished.
func (k *RawQ6) Done() bool { return k.remaining == 0 }

// SpawnRawQ6 launches the kernel under pid with nthreads threads and the
// given affinity policy. Like the paper's C program (Figure 3), the
// kernel owns its arrays: the four columns are copied into fresh memory
// whose placement is decided by the kernel threads' own first touch, not
// by the DBMS loader.
func SpawnRawQ6(s *Store, sc *sched.Scheduler, pid, nthreads int, aff RawAffinity) (*RawQ6, error) {
	li := s.Table("lineitem")
	// The kernel's arrays alias the store's immutable value slices (the
	// kernel only reads them) but carry fresh BAT headers, so their
	// simulated regions are separate and homed by the kernel threads' own
	// first touch — the behaviour the Fig 4 baseline depends on.
	clone := func(c *BAT) *BAT {
		return &BAT{Name: "raw." + c.Name, Kind: c.Kind, I: c.I, F: c.F}
	}
	k := &RawQ6{
		shipdate: clone(li.Col("l_shipdate")),
		quantity: clone(li.Col("l_quantity")),
		discount: clone(li.Col("l_discount")),
		price:    clone(li.Col("l_extendedprice")),
	}
	if nthreads < 1 {
		return nil, fmt.Errorf("db: raw kernel needs at least one thread")
	}
	topo := s.Machine().Topology()
	ranges := partitionRanges(nil, li.Rows, nthreads, 1)
	k.remaining = len(ranges)
	slab := make([]slot[FusedQ6], len(ranges))
	for i, r := range ranges {
		t := k.sliceTask(&slab[i], s.Machine(), r[0], r[1])
		var opts []sched.SpawnOption
		switch aff {
		case RawDense:
			opts = append(opts, sched.Pinned(sched.NewCPUSet(topo.Cores(0)...)))
		case RawSparse:
			node := numa.NodeID(i % topo.NodeCount)
			opts = append(opts, sched.Pinned(sched.NewCPUSet(topo.Cores(node)...)))
		}
		sc.Spawn(pid, fmt.Sprintf("rawq6-%d", i), t, opts...)
	}
	return k, nil
}

// sliceTask sets s up as one thread's fused scan over rows [lo, hi) and
// returns its Runner.
func (k *RawQ6) sliceTask(s *slot[FusedQ6], machine *numa.Machine, lo, hi int) sched.Runner {
	s.op = *NewFusedQ6(k.shipdate, k.quantity, k.discount, k.price, lo, hi)
	s.op.raw = k
	s.init("raw.q6", machine, &s.op, lo, hi, cyclesScan, k.shipdate, k.quantity, k.discount, k.price)
	return sched.RunnerFunc(func(ctx *sched.ExecContext, budget uint64) (uint64, bool, bool) {
		used, done := s.Step(ctx, budget)
		return used, false, done
	})
}
