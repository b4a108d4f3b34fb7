package obs

import (
	"elasticore/internal/metrics"
	"elasticore/internal/numa"
)

// probe.go samples slow-moving state the event stream does not carry —
// hardware-counter windows, energy, latency quantiles — at control-period
// boundaries, producing the timeline rows behind an experiment's
// "timeline" table.

// ProbeConfig assembles a Probe.
type ProbeConfig struct {
	// Machine supplies the clock and the hardware counters (required).
	Machine *numa.Machine
	// Every is the sampling interval in cycles; zero selects 50 ms at the
	// machine clock (the paper's control-loop class). Rigs pass their
	// mechanism's control period so samples land on control boundaries.
	Every uint64
	// Allocated reports the DBMS's current core count (nil records 0).
	Allocated func() int
	// Reading computes the strategy reading fed to the PrT net from the
	// sample's counter window — the deltas since the previous sample,
	// valid only during the call (nil records 0).
	Reading func(window numa.Counters) int
	// Backlog reports the admission-queue depth (nil records 0).
	Backlog func() int
	// Scheduler is the machine's scheduler (required): while it idles, the
	// probe stores its samples as runs instead of reading each (see Quiet).
	Scheduler Scheduler
}

// Scheduler is what a probe reads of the machine's scheduler to know that
// nothing ran; *sched.Scheduler implements it.
type Scheduler interface {
	// Idle reports whether no thread is runnable.
	Idle() bool
	// Ticked counts the quanta that ran threads; it stands still while
	// an idle scheduler is advanced.
	Ticked() uint64
	// Quantum is the time slice in cycles, the grid the clock moves on.
	Quantum() uint64
}

// Snapshot is one probe sample. Counter fields are window deltas since
// the previous sample; quantiles are cumulative over the attached
// histogram's lifetime.
type Snapshot struct {
	// Now is the sample's virtual time in cycles.
	Now uint64
	// Allocated is the DBMS core count at the sample.
	Allocated int
	// Load is the strategy reading at the sample.
	Load int
	// Backlog is the admission-queue depth at the sample.
	Backlog int
	// HTBytes and IMCBytes are interconnect and memory-controller traffic
	// in this window.
	HTBytes, IMCBytes uint64
	// EnergyJoules prices this window under the probe's energy model.
	EnergyJoules float64
	// P50 and P99 are latency quantiles in cycles of the attached
	// histogram (zero without one or before the first completion).
	P50, P99 uint64
}

// Probe samples Snapshots on a fixed virtual-time cadence. Call Maybe
// from the simulation loop; it is one clock comparison when not due.
// Sampling only reads simulation state (counter snapshots, cgroup sizes,
// histogram buckets), so a probed run is bit-identical to an unprobed
// one.
type Probe struct {
	cfg  ProbeConfig
	topo *numa.Topology
	// energy prices each counter window: the paper-calibrated model.
	energy metrics.EnergyModel
	window *numa.CounterWindow
	nextAt uint64
	// stride is Every rounded up to the scheduler's quantum grid: how far
	// apart a loop that calls Maybe every quantum samples.
	stride  uint64
	latency *metrics.Histogram
	// samples holds the samples in order, the settled ones as repeats of
	// the calm sample (see Samples).
	samples Timeline[Snapshot]
	// Settled counts the samples Maybe recorded at the quiet fixed point
	// without reading the counters.
	Settled uint64
	// p50 and p99 are latency's quantiles as of its Version quantilesAt-1;
	// zero marks them not yet taken from the attached histogram.
	p50, p99, quantilesAt uint64

	// quiet is set by a calm sample and calm records it (see Quiet).
	quiet bool
	calm  probeCalm
}

// probeCalm is the quiet fixed point a sample recorded: the sample, whose
// Now moves on to each settled one, and the inputs that must not change
// (Allocated and Backlog are the sample's own).
type probeCalm struct {
	snap    Snapshot
	ticked  uint64
	version uint64
}

// NewProbe wires a probe; the first sample is due one interval from now.
func NewProbe(cfg ProbeConfig) *Probe {
	topo := cfg.Machine.Topology()
	if cfg.Every == 0 {
		cfg.Every = topo.SecondsToCycles(50e-3)
	}
	q := cfg.Scheduler.Quantum()
	return &Probe{
		cfg:    cfg,
		topo:   topo,
		energy: metrics.DefaultEnergyModel(),
		window: cfg.Machine.NewCounterWindow(),
		nextAt: cfg.Machine.Now() + cfg.Every,
		stride: (cfg.Every + q - 1) / q * q,
	}
}

// SetLatency attaches (or with nil detaches) the histogram whose
// quantiles each sample records — typically the driver's total-latency
// histogram for the running phase. It ends the quiet fixed point.
func (p *Probe) SetLatency(h *metrics.Histogram) {
	p.latency, p.quantilesAt, p.quiet = h, 0, false
}

// Every returns the sampling interval in cycles.
func (p *Probe) Every() uint64 { return p.cfg.Every }

// NextAt returns the cycle of the next due sample. The parallel fleet
// engine caps decoupled stretches at it so Maybe is never late.
func (p *Probe) NextAt() uint64 { return p.nextAt }

// Maybe samples if the interval has elapsed; cheap to call every tick.
// While the probe is Quiet it reads nothing: it settles every sample due
// by now, recording each as the calm sample a stride later. A probe left
// out of a stretch because it was Quiet when the stretch began settles the
// samples due before now on that verdict, since nothing but an idle
// scheduler ran in between; the sample due at now is judged by a fresh
// Quiet, after whatever the barrier at now changed.
func (p *Probe) Maybe() {
	now := p.cfg.Machine.Now()
	if now < p.nextAt {
		return
	}
	if p.quiet {
		p.settle((now - 1 - p.calm.snap.Now) / p.stride)
		if now < p.nextAt {
			return
		}
	}
	if p.Quiet() {
		p.settle((now - p.calm.snap.Now) / p.stride)
		return
	}
	p.Sample()
}

// Quiet reports whether the probe sits at its quiet fixed point. A sample
// reaches it when its window was one stride in which no core ran and no
// node counter moved. The fixed point holds while the scheduler stays Idle
// without ticking a quantum, Allocated and Backlog read what the sample
// read, and the attached histogram keeps its Version (SetLatency ends it):
// every due sample then reads the same window, so it repeats the calm one
// but for Now. Reading must depend on nothing else of an idle window. The
// first failed check ends the fixed point until a sample finds it again.
// The verdict covers the quanta until the next Maybe, so a caller that
// advances the clock past a due sample must ask Quiet before it does.
func (p *Probe) Quiet() bool {
	if !p.quiet {
		return false
	}
	s, c := p.cfg.Scheduler, &p.calm
	p.quiet = s.Idle() && s.Ticked() == c.ticked && p.allocated() == c.snap.Allocated &&
		p.backlog() == c.snap.Backlog && (p.latency == nil || p.latency.Version() == c.version)
	return p.quiet
}

// settle records k due samples at the quiet fixed point, none for k = 0,
// each the calm sample a stride after the previous; the counter window
// restarts at the last of them, as its sample's Advance would have left it.
func (p *Probe) settle(k uint64) {
	if k == 0 {
		return
	}
	c := &p.calm.snap
	c.Now += k * p.stride
	p.Settled += k
	p.samples.Repeat(int(k))
	p.window.Restart(c.Now)
	p.nextAt = c.Now + p.cfg.Every
}

// Sample records one Snapshot now and schedules the next interval.
func (p *Probe) Sample() {
	machine := p.cfg.Machine
	window := p.window.Advance()
	p.nextAt = machine.Now() + p.cfg.Every

	s := Snapshot{
		Now:          machine.Now(),
		Allocated:    p.allocated(),
		Backlog:      p.backlog(),
		HTBytes:      window.TotalHTBytes(),
		IMCBytes:     window.TotalIMCBytes(),
		EnergyJoules: p.energy.Estimate(p.topo, window).Total(),
	}
	if p.cfg.Reading != nil {
		s.Load = p.cfg.Reading(window)
	}
	if h := p.latency; h != nil && h.Count() > 0 {
		// Most samples of an open-loop phase see no completion since the
		// last one: the bucket walk is redone only for a changed histogram.
		if v := h.Version() + 1; v != p.quantilesAt {
			p.p50, p.p99, p.quantilesAt = h.Quantile(0.50), h.Quantile(0.99), v
		}
		s.P50, s.P99 = p.p50, p.p99
	}
	p.samples.Append(s)
	p.quiet = window.IdleFor(p.stride)
	if p.quiet {
		p.calm = probeCalm{snap: s, ticked: p.cfg.Scheduler.Ticked()}
		if p.latency != nil {
			p.calm.version = p.latency.Version()
		}
	}
}

// allocated reads the DBMS core count, zero with no source wired.
func (p *Probe) allocated() int {
	if p.cfg.Allocated == nil {
		return 0
	}
	return p.cfg.Allocated()
}

// backlog reads the admission-queue depth, zero with no source wired.
func (p *Probe) backlog() int {
	if p.cfg.Backlog == nil {
		return 0
	}
	return p.cfg.Backlog()
}

// Samples returns the timeline recorded so far. Settled samples are stored
// as runs of their calm sample; once one exists, Samples expands them into
// a fresh slice, so the result may or may not alias the probe's own
// storage and must not be written to.
func (p *Probe) Samples() []Snapshot {
	return p.samples.Expand(func(s Snapshot) Snapshot {
		s.Now += p.stride
		return s
	})
}
