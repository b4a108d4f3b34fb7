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
	// Energy prices each counter window; the zero value selects the
	// paper-calibrated model.
	Energy metrics.EnergyModel
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
	cfg     ProbeConfig
	topo    *numa.Topology
	window  *numa.CounterWindow
	nextAt  uint64
	latency *metrics.Histogram
	samples []Snapshot
	// p50 and p99 are latency's quantiles as of its Version quantilesAt-1;
	// zero marks them not yet taken from the attached histogram.
	p50, p99, quantilesAt uint64
}

// NewProbe wires a probe; the first sample is due one interval from now.
func NewProbe(cfg ProbeConfig) *Probe {
	topo := cfg.Machine.Topology()
	if cfg.Every == 0 {
		cfg.Every = topo.SecondsToCycles(50e-3)
	}
	if cfg.Energy == (metrics.EnergyModel{}) {
		cfg.Energy = metrics.DefaultEnergyModel()
	}
	return &Probe{
		cfg:    cfg,
		topo:   topo,
		window: cfg.Machine.NewCounterWindow(),
		nextAt: cfg.Machine.Now() + cfg.Every,
	}
}

// SetLatency attaches (or with nil detaches) the histogram whose
// quantiles each sample records — typically the driver's total-latency
// histogram for the running phase.
func (p *Probe) SetLatency(h *metrics.Histogram) { p.latency, p.quantilesAt = h, 0 }

// Every returns the sampling interval in cycles.
func (p *Probe) Every() uint64 { return p.cfg.Every }

// NextAt returns the cycle of the next due sample. The parallel fleet
// engine caps decoupled stretches at it so Maybe is never late.
func (p *Probe) NextAt() uint64 { return p.nextAt }

// Maybe samples if the interval has elapsed; cheap to call every tick.
func (p *Probe) Maybe() {
	if p.cfg.Machine.Now() < p.nextAt {
		return
	}
	p.Sample()
}

// Sample records one Snapshot now and schedules the next interval.
func (p *Probe) Sample() {
	machine := p.cfg.Machine
	window := p.window.Advance()
	p.nextAt = machine.Now() + p.cfg.Every

	s := Snapshot{
		Now:          machine.Now(),
		HTBytes:      window.TotalHTBytes(),
		IMCBytes:     window.TotalIMCBytes(),
		EnergyJoules: p.cfg.Energy.Estimate(p.topo, window).Total(),
	}
	if p.cfg.Allocated != nil {
		s.Allocated = p.cfg.Allocated()
	}
	if p.cfg.Reading != nil {
		s.Load = p.cfg.Reading(window)
	}
	if p.cfg.Backlog != nil {
		s.Backlog = p.cfg.Backlog()
	}
	if h := p.latency; h != nil && h.Count() > 0 {
		// Most samples of an open-loop phase see no completion since the
		// last one: the bucket walk is redone only for a changed histogram.
		if v := h.Version() + 1; v != p.quantilesAt {
			p.p50, p.p99, p.quantilesAt = h.Quantile(0.50), h.Quantile(0.99), v
		}
		s.P50, s.P99 = p.p50, p.p99
	}
	p.samples = append(p.samples, s)
}

// Samples returns the timeline recorded so far.
func (p *Probe) Samples() []Snapshot { return p.samples }
