package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
)

// observer.go is the hook surface experiments report through while they
// run. Experiments used to run silently for seconds; an Observer sees each
// phase open and close and coarse progress, which the CLI turns into live
// status lines and tests turn into assertions.

// Observer receives progress callbacks from a running experiment. Methods
// may be called from the goroutine running the experiment only; the Runner
// gives each experiment its own Observer.
type Observer interface {
	// PhaseStart announces a named phase ("users=16", "mode=adaptive").
	PhaseStart(phase string)
	// PhaseDone closes the named phase.
	PhaseDone(phase string)
	// Progress reports completed work units out of a known total.
	Progress(done, total int)
}

// NopObserver ignores every callback.
type NopObserver struct{}

func (NopObserver) PhaseStart(string) {}
func (NopObserver) PhaseDone(string)  {}
func (NopObserver) Progress(int, int) {}

// WriterObserver prints one line per callback, optionally prefixed (the
// CLI prefixes the experiment name when running a batch). It is safe for
// use by concurrent experiments sharing one writer.
type WriterObserver struct {
	W      io.Writer
	Prefix string
	mu     sync.Mutex
}

func (o *WriterObserver) PhaseStart(phase string) { o.linef("phase %s ...", phase) }
func (o *WriterObserver) PhaseDone(phase string)  { o.linef("phase %s done", phase) }
func (o *WriterObserver) Progress(done, total int) {
	o.linef("progress %d/%d", done, total)
}

func (o *WriterObserver) linef(format string, args ...any) {
	// Build the whole line first and emit it as one Write, so observers of
	// concurrent experiments sharing a writer (e.g. several prefixed
	// instances over os.Stderr) never interleave partial lines.
	var b strings.Builder
	if o.Prefix != "" {
		fmt.Fprintf(&b, "%s: ", o.Prefix)
	}
	fmt.Fprintf(&b, format+"\n", args...)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.W.Write([]byte(b.String()))
}

// sweep runs body once per item, each run one phase named by name(item)
// (nil: the item itself, printed with %v): a ctx check, the start and
// done callbacks, then progress i/n of this sweep. It is how every
// experiment body reports its work.
func sweep[T any](ctx context.Context, obs Observer, items []T, name func(T) string, body func(i int, item T) error) error {
	for i, item := range items {
		if err := ctx.Err(); err != nil {
			return err
		}
		label := fmt.Sprint(item)
		if name != nil {
			label = name(item)
		}
		obs.PhaseStart(label)
		if err := body(i, item); err != nil {
			return err
		}
		obs.PhaseDone(label)
		obs.Progress(i+1, len(items))
	}
	return nil
}
