package sched

import (
	"fmt"
	"sort"
)

// CGroup models the Linux control-group facility the paper's prototype uses
// "to isolate the threads of the DBMS, and their future children, into
// specific hierarchical groups" (Section IV-A): a named set of PIDs bound
// to a cpuset that limits where their threads may run.
type CGroup struct {
	name string
	pids map[int]bool
	cpus CPUSet

	sched *Scheduler
}

// CPUs returns the group's current cpuset.
func (g *CGroup) CPUs() CPUSet { return g.cpus }

// PIDs returns the member process IDs in ascending order.
func (g *CGroup) PIDs() []int {
	out := make([]int, 0, len(g.pids))
	for pid := range g.pids {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// AddPID places a process (and its future threads) under the group,
// taking it out of the group it belonged to before: a process is in at
// most one cgroup.
func (g *CGroup) AddPID(pid int) {
	p := g.sched.proc(pid)
	if p.group != nil {
		delete(p.group.pids, pid)
	}
	g.pids[pid] = true
	p.group = g
	g.sched.reconcileGroup(g)
}

// SetCPUs replaces the group's cpuset. Threads currently queued on cores
// outside the new set are migrated immediately, exactly like writing a new
// mask to cpuset.cpus.
func (g *CGroup) SetCPUs(s CPUSet) {
	if s.IsEmpty() {
		panic(fmt.Sprintf("sched: cgroup %q cpuset cannot be empty", g.name))
	}
	g.cpus = s
	g.sched.reconcileGroup(g)
}
