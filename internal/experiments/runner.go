package experiments

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// runner.go executes a set of experiments concurrently. The simulation rigs
// are independent (each experiment builds its own machine, store and
// engine), so a batch like `elasticbench run fig4 fig19 consolidation
// -parallel 4` parallelizes perfectly across host cores.

// Report is the outcome of one experiment in a batch: exactly one of
// Result and Err is set.
type Report struct {
	Name    string
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// Runner executes experiments with a bounded worker pool.
type Runner struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Config scales every experiment of the batch.
	Config Config
	// Observe, when non-nil, supplies a per-experiment Observer (the CLI
	// uses it to prefix status lines with the experiment name).
	Observe func(experiment string) Observer
}

// Run executes the experiments and returns one Report per input, in input
// order. A failing experiment contributes its error to its own Report
// instead of aborting the batch; cancelling ctx stops unstarted
// experiments immediately (their reports carry ctx.Err()) and running ones
// at their next phase boundary.
func (r *Runner) Run(ctx context.Context, exps ...Experiment) []Report {
	reports := make([]Report, len(exps))
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reports[i] = r.runOne(ctx, exps[i])
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reports
}

func (r *Runner) runOne(ctx context.Context, e Experiment) Report {
	rep := Report{Name: e.Name}
	if err := ctx.Err(); err != nil {
		rep.Err = err
		return rep
	}
	var obs Observer
	if r.Observe != nil {
		obs = r.Observe(e.Name)
	}
	start := time.Now()
	rep.Result, rep.Err = e.Run(ctx, r.Config, obs)
	rep.Elapsed = time.Since(start)
	return rep
}
