package cluster

import (
	"fmt"

	"elasticore/internal/obs"
)

// health.go is the fleet's failure detector and repair loop. Machines
// publish heartbeats on the fleet bus (Fleet.Tick does, every
// HeartbeatEvery cycles, skipping crashed machines); the HealthMonitor
// subscribes and declares a machine dead once its beat gap exceeds four
// heartbeats (deadBeats). Death triggers shard re-assignment: every
// primary shard of the dead machine is re-homed onto a surviving replica
// (or, with R = 1, the healthy machine serving the fewest shards), each
// move charging an explicit TransferLatency against the ClusterArbiter's ledger — data
// does not teleport any more than cores do. While transfers are in
// flight the monitor brownout-caps the survivors' admission queues, so
// the fleet sheds load instead of queueing unboundedly while capacity is
// being rebuilt. A recovered machine (its beats resume) gets its home
// shards transferred back the same way.
//
// Everything is deterministic: detection happens at integer heartbeat
// gaps, transfers land at integer due cycles, targets break ties by
// lowest machine index, and re-assignment order is ascending shard id.

// HealthConfig assembles a HealthMonitor.
type HealthConfig struct {
	// Fleet is the monitored pool (required).
	Fleet *Fleet
	// HeartbeatEvery is the beat interval in cycles; zero selects the
	// timebase heartbeat.
	HeartbeatEvery uint64
	// TransferLatency is the simulated cost of re-homing one shard, in
	// cycles; zero selects the timebase transfer. Until it elapses the
	// shard is served by nobody — its requests fail over, retry or shed.
	TransferLatency uint64
	// BrownoutCap, when positive, tightens every surviving machine's
	// admission queue to this depth while transfers are in flight.
	BrownoutCap int
}

// deadBeats is the beat gap, in heartbeat intervals, that declares a
// machine dead.
const deadBeats = 4

// shardTransfer is one in-flight shard move.
type shardTransfer struct {
	shard, from, to int
	due             uint64
}

// HealthMonitor watches heartbeats, re-homes shards off dead machines
// and back onto recovered ones. Build it with NewHealthMonitor; it runs
// from Fleet.Tick.
type HealthMonitor struct {
	fleet       *Fleet
	every       uint64
	deadAfter   uint64
	transferLat uint64
	brownout    int

	lastBeat  []uint64
	dead      []bool
	transfers []shardTransfer
	browned   bool
	scratch   []int
	scratch2  []int

	// Deaths and Recoveries count detection events; Reassigned counts
	// landed shard moves; TransferCycles is the total simulated
	// transfer cost charged.
	Deaths, Recoveries, Reassigned int
	TransferCycles                 uint64
}

// NewHealthMonitor wires failure detection onto a fleet and installs it
// as part of Fleet.Tick. It attaches the fleet bus (creating one if the
// fleet runs dark) because heartbeats travel over it.
func NewHealthMonitor(cfg HealthConfig) (*HealthMonitor, error) {
	f := cfg.Fleet
	if f == nil {
		return nil, fmt.Errorf("cluster: Fleet is required")
	}
	if f.health != nil {
		return nil, fmt.Errorf("cluster: fleet already has a health monitor")
	}
	tb := f.Rigs[0].Machine.Timebase()
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = tb.Heartbeat
	}
	if cfg.TransferLatency == 0 {
		cfg.TransferLatency = tb.Transfer
	}
	h := &HealthMonitor{
		fleet:       f,
		every:       cfg.HeartbeatEvery,
		deadAfter:   deadBeats * cfg.HeartbeatEvery,
		transferLat: cfg.TransferLatency,
		brownout:    cfg.BrownoutCap,
		lastBeat:    make([]uint64, len(f.Rigs)),
		dead:        make([]bool, len(f.Rigs)),
	}
	now := f.Now()
	for m := range h.lastBeat {
		h.lastBeat[m] = now // grace: everyone is presumed alive at start
	}
	f.EnsureBus().Subscribe(obs.KindHeartbeat, func(e obs.Event) {
		h.beat(int(e.Machine), e.Now)
	})
	f.health = h
	f.nextBeat = now
	return h, nil
}

// HeartbeatEvery returns the beat interval in cycles.
func (h *HealthMonitor) HeartbeatEvery() uint64 { return h.every }

// Dead reports the monitor's current belief about machine m. It is a
// belief, not ground truth: a crashed machine stays presumed-alive for
// one detection gap, and that window is exactly where retries and
// failovers earn their keep.
func (h *HealthMonitor) Dead(m int) bool { return h.dead[m] }

// beat records a heartbeat; a beat from a machine believed dead is the
// recovery signal and triggers re-homing its shards back.
func (h *HealthMonitor) beat(m int, now uint64) {
	h.lastBeat[m] = now
	if h.dead[m] {
		h.recover(m, now)
	}
}

// Step runs detection and lands due transfers; the fleet calls it at every
// epoch barrier after the heartbeat round, and ends an epoch at NextAt.
func (h *HealthMonitor) Step(now uint64) {
	for m := range h.dead {
		if !h.dead[m] && now-h.lastBeat[m] > h.deadAfter {
			h.declareDead(m, now)
		}
	}
	if len(h.transfers) > 0 {
		kept := h.transfers[:0]
		for _, t := range h.transfers {
			if t.due > now {
				kept = append(kept, t)
				continue
			}
			h.land(t)
		}
		h.transfers = kept
	}
	if arb := h.fleet.arb; arb != nil {
		// Each in-flight transfer reserves one core of the fleet budget:
		// moving data consumes capacity the survivors cannot use yet.
		arb.SetReserved(len(h.transfers))
	}
	h.applyBrownout()
}

// NextAt returns the first cycle at which the health round (the fleet's
// heartbeats, then Step) can act: the next heartbeat, the first cycle past
// four heartbeats since the last beat of a machine believed alive, or the
// earliest transfer due. Until then every round does nothing, so the fleet
// may stretch epochs up to it.
func (h *HealthMonitor) NextAt() uint64 {
	next := h.fleet.nextBeat
	for m, dead := range h.dead {
		if !dead {
			next = min(next, h.lastBeat[m]+h.deadAfter+1)
		}
	}
	for _, t := range h.transfers {
		next = min(next, t.due)
	}
	return next
}

// declareDead marks the machine and schedules a transfer for every shard
// it was serving, ascending.
func (h *HealthMonitor) declareDead(m int, now uint64) {
	h.dead[m] = true
	h.Deaths++
	// Re-target any in-flight transfers that were headed to the machine
	// that just died; their clocks restart.
	for i := range h.transfers {
		t := &h.transfers[i]
		if t.to != m {
			continue
		}
		if to, ok := h.target(t.shard); ok {
			t.to, t.due = to, now+h.transferLat
			h.begin(t.shard, t.from, to, now)
		}
	}
	h.scratch = h.fleet.Sharder.PrimariesOf(m, h.scratch[:0])
	for _, shard := range h.scratch {
		to, ok := h.target(shard)
		if !ok {
			continue // no healthy machine anywhere; nothing to do
		}
		h.transfers = append(h.transfers, shardTransfer{shard: shard, from: m, to: to, due: now + h.transferLat})
		h.begin(shard, m, to, now)
	}
}

// recover re-homes machine m's home shards back after its beats resume.
func (h *HealthMonitor) recover(m int, now uint64) {
	h.dead[m] = false
	h.Recoveries++
	// Drop pending moves away from the recovered machine: it is back
	// before the transfer landed, so the move is moot.
	kept := h.transfers[:0]
	for _, t := range h.transfers {
		if t.from != m {
			kept = append(kept, t)
		}
	}
	h.transfers = kept
	sh := h.fleet.Sharder
	for shard := 0; shard < sh.Shards(); shard++ {
		if sh.Home(shard) != m || sh.Owner(shard) == m || h.moving(shard) {
			continue
		}
		from := sh.Owner(shard)
		h.transfers = append(h.transfers, shardTransfer{shard: shard, from: from, to: m, due: now + h.transferLat})
		h.begin(shard, from, m, now)
	}
}

// moving reports whether the shard already has a transfer in flight.
func (h *HealthMonitor) moving(shard int) bool {
	for _, t := range h.transfers {
		if t.shard == shard {
			return true
		}
	}
	return false
}

// target picks the machine a shard re-homes onto: the first healthy
// member of its replica set (it already holds the data — the transfer
// is catch-up, not a full copy), else the healthy machine serving the
// fewest shards (ties: lowest index). ok is false when every machine is
// believed dead.
func (h *HealthMonitor) target(shard int) (int, bool) {
	sh := h.fleet.Sharder
	h.scratch2 = sh.ReplicaSet(shard, h.scratch2[:0])
	for _, m := range h.scratch2 {
		if !h.dead[m] {
			return m, true
		}
	}
	best, bestLoad := -1, 0
	for m := range h.dead {
		if h.dead[m] {
			continue
		}
		load := len(sh.PrimariesOf(m, h.scratch2[:0]))
		for _, t := range h.transfers {
			if t.to == m {
				load++
			}
		}
		if best == -1 || load < bestLoad {
			best, bestLoad = m, load
		}
	}
	return best, best != -1
}

// begin publishes the start-of-transfer event.
func (h *HealthMonitor) begin(shard, from, to int, now uint64) {
	if b := h.fleet.Bus; b != nil {
		b.Publish(obs.Event{
			Kind: obs.KindReassign, Now: now, Core: -1,
			V1: int64(shard), V2: int64(from), Dur: h.transferLat,
			Label: "begin", Machine: int32(to),
		})
	}
}

// land completes a transfer: the shard's primary moves, the arbiter's
// ledger is charged, and the done event records the move.
func (h *HealthMonitor) land(t shardTransfer) {
	h.fleet.Sharder.Reassign(t.shard, t.to)
	h.Reassigned++
	h.TransferCycles += h.transferLat
	if arb := h.fleet.arb; arb != nil {
		arb.ChargeTransfer(h.transferLat)
	}
	if b := h.fleet.Bus; b != nil {
		b.Publish(obs.Event{
			Kind: obs.KindReassign, Now: t.due, Core: -1,
			V1: int64(t.shard), V2: int64(t.from), Dur: h.transferLat,
			Label: "done", Machine: int32(t.to),
		})
	}
}

// applyBrownout tightens or restores the survivors' admission queues as
// transfers start and finish.
func (h *HealthMonitor) applyBrownout() {
	if h.brownout <= 0 {
		return
	}
	active := len(h.transfers) > 0
	if active == h.browned {
		return
	}
	h.browned = active
	qcap := 0
	if active {
		qcap = h.brownout
	}
	for _, adm := range h.fleet.admissions {
		if adm != nil {
			adm.BrownoutCap = qcap
		}
	}
}
