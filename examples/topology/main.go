// Topology zoo: run the same elastic workload on machine shapes beyond
// the paper's testbed — a dual-socket server, a four-socket ring, the
// real 8-socket Opteron twisted ladder, a chiplet-style package — under
// each topology-aware core placement mode, and compare the Section V-B
// NUMA-friendliness metric (HT/IMC traffic ratio; smaller is better).
// Also shows defining a custom shape from a textual spec.
package main

import (
	"fmt"
	"log"

	"elasticore"
)

func main() {
	const sf = 0.005

	shapes := []struct {
		name string
		topo *elasticore.Topology
	}{
		{"2socket", elasticore.TwoSocket()},
		{"4ring", elasticore.FourSocketRing()},
		{"8twisted", elasticore.EightSocketTwisted()},
		{"epyc", elasticore.EPYCLike()},
	}

	fmt.Println("topology   placement  cores  q/s      ht/imc")
	for _, s := range shapes {
		for _, mode := range []elasticore.Mode{elasticore.ModeNodeFill, elasticore.ModeHopMin, elasticore.ModeScatter} {
			run(s.name, s.topo, mode, sf)
		}
	}

	// A custom shape straight from a spec: three 5-core nodes on a
	// line — the middle node one hop from both ends, the ends two
	// hops from each other.
	custom, err := elasticore.ParseTopology("3x5 @ 1 2 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	run("3x5-line", custom, elasticore.ModeNodeFill, sf)
}

// run drives 16 concurrent clients, each one TPC-H Q6, on a fresh rig
// over the given shape and placement mode, then prints one summary line.
func run(name string, topo *elasticore.Topology, mode elasticore.Mode, sf float64) {
	rig, err := elasticore.NewRig(elasticore.RigOptions{
		SF:       sf,
		Topology: elasticore.ScaleTopology(topo, sf),
		Mode:     mode,
	})
	if err != nil {
		log.Fatal(err)
	}
	driver := &elasticore.Driver{Rig: rig, QueriesPerClient: 1}
	res := driver.Run(16, func(client, k int) *elasticore.Plan {
		return elasticore.BuildQuery(6, uint64(client+1))
	})
	fmt.Printf("%-10s %-10s %5d  %7.1f  %.3f\n",
		name, mode, rig.Machine.Topology().TotalCores(),
		res.Throughput, res.Window.HTIMCRatio())
}
