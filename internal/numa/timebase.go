package numa

// Timebase is every simulated duration the model runs at, in cycles of
// one topology's clock: the one place a duration becomes cycles. A
// layer whose configuration leaves a duration zero reads its entry here.
// Each entry converts its own literal, never another entry, so a
// rounding in one cannot leak into the next (150 us is 419 999 cycles at
// 2.8 GHz, not three times 140 000).
type Timebase struct {
	// Quantum is the scheduler's time slice (50 us): small against
	// scaled-down query runtimes.
	Quantum uint64
	// ControlPeriod is a rig's control loop (0.25 ms): the elastic
	// mechanism, the tenant arbiter and the probe's sampling.
	ControlPeriod uint64
	// FleetPeriod is the cluster arbiter's control loop (1 ms).
	FleetPeriod uint64
	// Migrate is the cost of moving one core between machines (1 ms).
	Migrate uint64
	// FrontEnd is a query's serial parse and optimize cost (150 us).
	FrontEnd uint64
	// Claim is a dataflow stage's serial claim cost (30 us).
	Claim uint64
	// Window is the congestion counters' accounting window (1 ms).
	Window uint64
	// Heartbeat is a fleet machine's beat interval (1 ms).
	Heartbeat uint64
	// Transfer is the cost of re-homing one shard (8 ms).
	Transfer uint64
	// Deadline bounds a run that waits for its queries (600 s).
	Deadline uint64
}

// newTimebase resolves the durations at t's clock.
func newTimebase(t *Topology) Timebase {
	return Timebase{
		Quantum:       t.SecondsToCycles(50e-6),
		ControlPeriod: t.SecondsToCycles(0.25e-3),
		FleetPeriod:   t.SecondsToCycles(1e-3),
		Migrate:       t.SecondsToCycles(1e-3),
		FrontEnd:      t.SecondsToCycles(150e-6),
		Claim:         t.SecondsToCycles(30e-6),
		Window:        t.SecondsToCycles(1e-3),
		Heartbeat:     t.SecondsToCycles(1e-3),
		Transfer:      t.SecondsToCycles(8e-3),
		Deadline:      t.SecondsToCycles(600),
	}
}
