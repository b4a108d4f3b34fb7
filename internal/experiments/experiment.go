package experiments

import (
	"context"
	"time"
)

// experiment.go defines what an experiment is: one row of the catalogue
// in register.go.

// Experiment is one runnable evaluation artifact.
type Experiment struct {
	// Name is the stable catalogue key ("fig4", "overhead", ...).
	Name string
	// Title is the result headline ("Figure 4: Q6 under increasing
	// concurrency").
	Title string
	// Summary is a sentence on what the experiment measures.
	Summary string
	// Tags group experiments for selection: "microbench", "elastic",
	// "tenancy", "energy", "trace", ...
	Tags []string
	// Body runs the experiment on a validated Config and a non-nil
	// Observer and returns the structured result. Run stamps Name, Title
	// and Meta afterwards, so a body only fills tables, metrics and
	// artifacts.
	Body func(ctx context.Context, cfg Config, obs Observer) (*Result, error)
}

// Run executes the experiment. The Config is validated and defaulted
// before the body runs; a nil Observer is replaced with NopObserver. The
// body honors ctx cancellation between phases.
func (e Experiment) Run(ctx context.Context, cfg Config, obs Observer) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if obs == nil {
		obs = NopObserver{}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := e.Body(ctx, cfg, obs)
	if err != nil {
		return nil, err
	}
	res.Name = e.Name
	if res.Title == "" {
		res.Title = e.Title
	}
	if res.Metrics == nil {
		res.Metrics = []Metric{} // render as [] in JSON, not null
	}
	if res.Tables == nil {
		res.Tables = []*Table{}
	}
	res.Meta = cfg.meta()
	res.Meta.WallTime = time.Since(start)
	res.Meta.Version = buildVersion()
	return res, nil
}

// meta derives the run metadata from an already-defaulted Config.
func (c Config) meta() Meta {
	return Meta{
		SF:      c.SF,
		Clients: c.Clients,
		Users:   c.Users,
		Seed:    c.Seed,
		Tenants: c.Tenants,
		Engine:  c.engineName(),
	}
}
