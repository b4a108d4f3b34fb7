package experiments

import (
	"fmt"
	"sort"
	"sync"
)

// registry.go is the experiment catalogue. The paper's 13 artifacts are
// registered in register.go; future scenarios add themselves with Register
// instead of growing a switch table in cmd/elasticbench.

// Registry is a named, ordered collection of experiments.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Experiment
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Experiment{}}
}

// Register adds an experiment; duplicate or empty names error.
func (r *Registry) Register(e Experiment) error {
	name := e.Name()
	if name == "" {
		return fmt.Errorf("experiments: experiment with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("experiments: duplicate experiment %q", name)
	}
	r.byName[name] = e
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register for init-time catalogues; it panics on error.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Lookup returns the named experiment.
func (r *Registry) Lookup(name string) (Experiment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	return e, ok
}

// All returns every experiment in registration order.
func (r *Registry) All() []Experiment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Experiment, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	return out
}

// Names returns every registered name in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// WithTag returns the experiments carrying the tag, in registration order.
func (r *Registry) WithTag(tag string) []Experiment {
	var out []Experiment
	for _, e := range r.All() {
		for _, t := range e.Describe().Tags {
			if t == tag {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Tags returns the sorted union of all registered tags.
func (r *Registry) Tags() []string {
	seen := map[string]bool{}
	for _, e := range r.All() {
		for _, t := range e.Describe().Tags {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// defaultRegistry holds the package-level catalogue.
var defaultRegistry = NewRegistry()

// Register adds an experiment to the default registry, panicking on
// duplicates (registration is an init-time act).
func Register(e Experiment) { defaultRegistry.MustRegister(e) }

// Lookup finds an experiment in the default registry.
func Lookup(name string) (Experiment, bool) { return defaultRegistry.Lookup(name) }

// All lists the default registry in registration order.
func All() []Experiment { return defaultRegistry.All() }

// Names lists the default registry's names in registration order.
func Names() []string { return defaultRegistry.Names() }

// WithTag filters the default registry by tag.
func WithTag(tag string) []Experiment { return defaultRegistry.WithTag(tag) }

// Tags returns the sorted union of the default registry's tags.
func Tags() []string { return defaultRegistry.Tags() }
