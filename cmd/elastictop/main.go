// Command elastictop runs a mixed TPC-H workload under the elastic
// mechanism and prints its state-transition timeline — a textual view of
// the paper's Figure 7: fired transition path, load reading, allocated
// core count and the cpuset per control period.
//
// The view is rendered entirely from the rig's telemetry bus
// (internal/obs): the mechanism publishes a KindTransition event per
// control period and the scheduler its migrations, so elastictop is just
// one more subscriber — it shares the stream with any trace consumer and
// can dump the whole run as a Perfetto trace alongside.
//
// Usage:
//
//	elastictop -sf 0.005 -clients 32 -mode adaptive -queries 3
//	elastictop -trace run.json   # also write Chrome/Perfetto JSON
package main

import (
	"flag"
	"fmt"
	"os"

	"elasticore/internal/db"
	"elasticore/internal/numa"
	"elasticore/internal/obs"
	"elasticore/internal/sched"
	"elasticore/internal/tpch"
	"elasticore/internal/workload"
)

func main() {
	var (
		sf      = flag.Float64("sf", 0.005, "scale factor")
		clients = flag.Int("clients", 32, "concurrent clients")
		queries = flag.Int("queries", 2, "queries per client")
		mode    = flag.String("mode", "adaptive", "allocation mode: dense | sparse | adaptive | node-fill | hop-min | scatter")
		trace   = flag.String("trace", "", "write the run's telemetry as Chrome/Perfetto trace-event JSON")
	)
	flag.Parse()
	if *clients < 1 || *queries < 1 {
		fmt.Fprintf(os.Stderr, "elastictop: -clients and -queries must be at least 1 (got %d and %d)\n", *clients, *queries)
		flag.Usage()
		os.Exit(2)
	}

	// The mechanism modes are the ones after ModeOS, through ModeScatter.
	m := workload.ModeDense
	for m <= workload.ModeScatter && m.String() != *mode {
		m++
	}
	if m > workload.ModeScatter {
		fmt.Fprintf(os.Stderr, "elastictop: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	bus := obs.NewBus(0)
	rig, err := workload.NewRig(workload.Options{SF: *sf, Mode: m, Bus: bus})
	if err != nil {
		fmt.Fprintf(os.Stderr, "elastictop: %v\n", err)
		os.Exit(1)
	}
	probe := rig.EnableProbe(0)
	d := &workload.Driver{Rig: rig, QueriesPerClient: *queries}
	res := d.Run(*clients, func(c, k int) *db.Plan {
		x := uint64(c)*2654435761 + uint64(k) + 1
		return tpch.Build(int(x%tpch.QueryCount)+1, x)
	})

	topo := rig.Machine.Topology()
	fmt.Printf("mode=%s clients=%d completed=%d throughput=%.1f q/s elapsed=%.3fs\n\n",
		m, *clients, res.Completed, res.Throughput, res.ElapsedSeconds)
	fmt.Printf("%-10s %-18s %5s %6s  %-10s %s\n", "t(s)", "transition", "u", "cores", "action", "cpuset")
	for _, e := range bus.EventsOfKind(obs.KindTransition) {
		action := ""
		switch {
		case e.Core < 0:
			// No core moved this period.
		case sched.CPUSet(e.Set).Contains(numa.CoreID(e.Core)):
			// The moved core is in the post-step set: it was granted.
			action = fmt.Sprintf("+core %d", e.Core)
		default:
			action = fmt.Sprintf("-core %d", e.Core)
		}
		fmt.Printf("%-10.4f %-18s %5d %6d  %-10s %s\n",
			topo.CyclesToSeconds(e.Now), e.Label, e.V1, e.V2, action, sched.CPUSet(e.Set))
	}

	fmt.Printf("\nfinal cpuset: %s\n", rig.CGroup.CPUs())
	fmt.Printf("stolen=%d migrations=%d cross-node=%d\n",
		res.Sched.StolenTasks, res.Sched.Migrations, res.Sched.CrossNodeMigrations)
	fmt.Printf("bus: %d events published (%d retained: %d slices, %d migrations, %d tasks)\n",
		bus.Total(), bus.Len(),
		len(bus.EventsOfKind(obs.KindRunSlice)),
		len(bus.EventsOfKind(obs.KindMigration)),
		len(bus.EventsOfKind(obs.KindTaskDone)))
	if samples := probe.Samples(); len(samples) > 0 {
		last := samples[len(samples)-1]
		fmt.Printf("probe: %d samples, last window: %d cores, %.2f MB HT, %.2f MB IMC, %.3f J\n",
			len(samples), last.Allocated,
			float64(last.HTBytes)/1e6, float64(last.IMCBytes)/1e6, last.EnergyJoules)
	}

	if *trace != "" {
		if err := obs.WriteTraceFile(*trace, bus.Events()); err != nil {
			fmt.Fprintf(os.Stderr, "elastictop: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d trace events to %s\n", bus.Len(), *trace)
	}
}
