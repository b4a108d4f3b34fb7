package experiments

import (
	"fmt"
	"sort"
	"strings"

	"elasticore/internal/numa"
	"elasticore/internal/obs"
)

// lifespan.go holds the two bus subscribers behind Figures 5, 6 and 16:
// the lifespan trace (which cores each thread ran on, and its core
// migrations) and MonetDB's operator tomograph. Each keeps the events it
// receives as they are and reads them back on demand.

// lifespan records the migrations and run slices of every thread.
type lifespan struct {
	topo       *numa.Topology
	migrations []obs.Event
	slices     []obs.Event
}

// newLifespan subscribes a lifespan trace to b. Any number of traces and
// other consumers coexist on the one stream.
func newLifespan(b *obs.Bus, topo *numa.Topology) *lifespan {
	l := &lifespan{topo: topo}
	b.Subscribe(obs.KindMigration, func(e obs.Event) { l.migrations = append(l.migrations, e) })
	b.Subscribe(obs.KindRunSlice, func(e obs.Event) { l.slices = append(l.slices, e) })
	return l
}

// MigrationCount returns total and cross-node migration counts for the
// recorded window.
func (l *lifespan) MigrationCount() (total, crossNode int) {
	for _, e := range l.migrations {
		if l.topo.NodeOf(numa.CoreID(e.From)) != l.topo.NodeOf(numa.CoreID(e.Core)) {
			crossNode++
		}
	}
	return len(l.migrations), crossNode
}

// CoresUsed returns the distinct cores each thread executed on, by TID.
func (l *lifespan) CoresUsed() map[int64][]numa.CoreID {
	seen := make(map[int64]map[numa.CoreID]bool)
	for _, s := range l.slices {
		if seen[s.TID] == nil {
			seen[s.TID] = make(map[numa.CoreID]bool)
		}
		seen[s.TID][numa.CoreID(s.Core)] = true
	}
	out := make(map[int64][]numa.CoreID, len(seen))
	for tid, cores := range seen {
		var cs []numa.CoreID
		for c := range cores {
			cs = append(cs, c)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		out[tid] = cs
	}
	return out
}

// NodesUsed returns the number of distinct NUMA nodes each thread
// executed on, by TID.
func (l *lifespan) NodesUsed() map[int64]int {
	out := make(map[int64]int)
	for tid, cores := range l.CoresUsed() {
		nodes := make(map[numa.NodeID]bool)
		for _, c := range cores {
			nodes[l.topo.NodeOf(c)] = true
		}
		out[tid] = len(nodes)
	}
	return out
}

// Render draws an ASCII lifespan map in the spirit of Figures 5/16: one
// row per time bucket, one column per thread, cells showing the core that
// ran the thread in that bucket ('.' = idle). Threads are limited to the
// first maxThreads by TID.
func (l *lifespan) Render(buckets, maxThreads int) string {
	if len(l.slices) == 0 {
		return "(no run slices recorded)\n"
	}
	var minT, maxT uint64
	tids := map[int64]bool{}
	for i, s := range l.slices {
		if i == 0 || s.Start < minT {
			minT = s.Start
		}
		if end := s.Start + s.Dur; end > maxT {
			maxT = end
		}
		tids[s.TID] = true
	}
	ids := make([]int64, 0, len(tids))
	for id := range tids {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > maxThreads {
		ids = ids[:maxThreads]
	}
	col := make(map[int64]int, len(ids))
	for i, id := range ids {
		col[id] = i
	}
	span := maxT - minT
	if span == 0 {
		span = 1
	}
	grid := make([][]int, buckets)
	for i := range grid {
		grid[i] = make([]int, len(ids))
		for j := range grid[i] {
			grid[i][j] = -1
		}
	}
	for _, s := range l.slices {
		c, ok := col[s.TID]
		if !ok {
			continue
		}
		b := int(uint64(buckets) * (s.Start - minT) / span)
		if b >= buckets {
			b = buckets - 1
		}
		grid[b][c] = int(s.Core)
	}
	var b strings.Builder
	b.WriteString("time ")
	for _, id := range ids {
		fmt.Fprintf(&b, " T%-3d", id)
	}
	b.WriteByte('\n')
	for i, row := range grid {
		fmt.Fprintf(&b, "%4d ", i)
		for _, core := range row {
			if core < 0 {
				b.WriteString("   . ")
			} else {
				fmt.Fprintf(&b, " %3d ", core)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tomograph aggregates per-operator task executions like MonetDB's
// tomograph facility (paper Figure 6): how many calls each operator made,
// their total time, and which workers ran them.
type tomograph struct {
	topo  *numa.Topology
	tasks []obs.Event
}

// newTomograph subscribes a tomograph to b's task completions.
func newTomograph(b *obs.Bus, topo *numa.Topology) *tomograph {
	t := &tomograph{topo: topo}
	b.Subscribe(obs.KindTaskDone, func(e obs.Event) { t.tasks = append(t.tasks, e) })
	return t
}

// opStat summarizes one operator.
type opStat struct {
	Op      string
	Calls   int
	Seconds float64
	Workers int
}

// Stats returns the per-operator summary sorted by descending total time.
func (t *tomograph) Stats() []opStat {
	type agg struct {
		calls   int
		cycles  uint64
		workers map[int64]bool
	}
	byOp := map[string]*agg{}
	for _, e := range t.tasks {
		a := byOp[e.Label]
		if a == nil {
			a = &agg{workers: map[int64]bool{}}
			byOp[e.Label] = a
		}
		a.calls++
		a.cycles += e.Dur
		a.workers[e.TID] = true
	}
	out := make([]opStat, 0, len(byOp))
	for op, a := range byOp {
		out = append(out, opStat{
			Op:      op,
			Calls:   a.calls,
			Seconds: t.topo.CyclesToSeconds(a.cycles),
			Workers: len(a.workers),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Render prints the operator table in Figure 6's caption style
// ("algebra.subselect — 32 calls: 1.435 s").
func (t *tomograph) Render() string {
	var b strings.Builder
	for _, s := range t.Stats() {
		fmt.Fprintf(&b, "%-26s %4d calls: %8.3f ms on %2d workers\n",
			s.Op, s.Calls, s.Seconds*1e3, s.Workers)
	}
	if b.Len() == 0 {
		return "(no task events recorded)\n"
	}
	return b.String()
}
