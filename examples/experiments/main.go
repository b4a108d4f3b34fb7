// Command experiments demonstrates the experiment platform: enumerate the
// catalogue, run a batch concurrently with a Runner and an Observer, and
// render one structured Result as JSON.
package main

import (
	"context"
	"fmt"
	"os"

	"elasticore"
)

func main() {
	// The catalogue: the paper's figures come first.
	fmt.Println("catalogued experiments:")
	for _, e := range elasticore.Experiments() {
		fmt.Printf("  %-14s %s\n", e.Name, e.Title)
	}

	// Run two experiments concurrently at a tiny scale factor, streaming
	// phase events to stderr.
	runner := &elasticore.Runner{
		Parallel: 2,
		Config:   elasticore.ExperimentConfig{SF: 0.002, Clients: 8, Users: []int{1, 4}},
		Observe: func(name string) elasticore.Observer {
			return &obs{name: name}
		},
	}
	fig4, _ := elasticore.LookupExperiment("fig4")
	overhead, _ := elasticore.LookupExperiment("overhead")
	reports := runner.Run(context.Background(), fig4, overhead)

	for _, rep := range reports {
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", rep.Name, rep.Err)
			continue
		}
		fmt.Printf("\n%s finished in %s\n", rep.Name, rep.Elapsed.Round(1e6))
	}

	// A Result renders to text, JSON or CSV; JSON keeps the table schema.
	if reports[0].Result != nil {
		fmt.Println("\nfig4 as JSON:")
		reports[0].Result.WriteJSON(os.Stdout)
	}
}

// obs prints phase events, prefixed with the experiment name.
type obs struct{ name string }

func (o *obs) PhaseStart(phase string) { fmt.Fprintf(os.Stderr, "%s: %s ...\n", o.name, phase) }
func (o *obs) PhaseDone(phase string)  { fmt.Fprintf(os.Stderr, "%s: %s done\n", o.name, phase) }
func (o *obs) Progress(done, total int) {
	fmt.Fprintf(os.Stderr, "%s: %d/%d\n", o.name, done, total)
}
