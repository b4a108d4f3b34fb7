// Package obs is the simulation's telemetry spine: a typed event bus
// with multi-subscriber fan-out and a fixed-capacity ring buffer, periodic
// Snapshot probes sampled at control-period boundaries, and exporters
// (Chrome/Perfetto trace-event JSON) over the recorded stream.
//
// Every layer of the stack publishes onto one shared Bus — the elastic
// mechanism its control-period transition firings, the tenant arbiter its
// core grants, the scheduler its thread migrations and run slices, the
// engine its per-task operator completions, the open-loop driver its
// admissions, sheds and query completions — so consumers like the
// experiments' lifespan traces and tomograph, elastictop and the Perfetto
// exporter can coexist instead of fighting over single replace-on-attach
// hooks.
//
// Two standing contracts shape the design:
//
//   - Events observe, never perturb. Publishing mutates nothing outside
//     the bus, and every timestamp is an integer simulated-cycle count
//     taken from the machine clock — no host time, no floats — so a
//     traced run is bit-identical to an untraced one.
//   - Near-zero overhead when dark. Producers keep a nil-checked bus
//     pointer (one predictable branch when tracing is off), the ring is
//     preallocated, Event is a flat value struct (no interface boxing),
//     and Publish with no subscribers allocates nothing.
//
// The bus is deliberately single-goroutine, like the simulation itself:
// no locks, no channels, deterministic fan-out order (subscription order).
package obs

// Kind discriminates the event types carried by the Bus.
type Kind uint8

const (
	// KindMigration is a scheduler thread reassignment (TID moved From ->
	// Core at Now).
	KindMigration Kind = iota
	// KindRunSlice is one executed slice of a thread on a core (TID ran
	// on Core for Dur cycles from Start; Label is the thread name).
	KindRunSlice
	// KindTaskDone is a completed operator task (worker TID ran operator
	// Label from Start for Dur cycles; Tenant names the owning engine
	// under consolidation).
	KindTaskDone
	// KindTransition is one control-period evaluation of a PrT net
	// (Label is the fired transition path, V1 the strategy reading fed to
	// the net, V2 the allocation the step produced — the applied cpuset
	// size after a Step, the desired size under arbitration — Core the
	// core added or removed, -1 when the decision moved no core, and Set
	// the cpuset after the step).
	KindTransition
	// KindGrant is one tenant's outcome of an arbitration round (Tenant
	// asked for V1 cores, was granted V2, holds cpuset Set).
	KindGrant
	// KindAdmit is an open-loop admission: a queued request entered a
	// server session after Dur cycles of queue wait, leaving V1 requests
	// queued and V2 in flight.
	KindAdmit
	// KindShed is an open-loop drop at a full admission queue of depth V1.
	KindShed
	// KindQueryDone is an open-loop query completion: total latency Dur
	// cycles (queue wait plus service), of which V1 cycles were service.
	KindQueryDone
	// KindRoute is a cluster routing decision: the coordinator placed a
	// request on Machine (V1 = its admission-queue depth after the
	// enqueue, V2 = the target shard, -1 for a scatter; Label is the
	// routing kind: "keyed" or "scatter").
	KindRoute
	// KindRebalance is a cluster-arbiter core movement: Machine's budget
	// changed by V1 cores to V2, with Dur cycles of migration latency
	// charged before an increase takes effect.
	KindRebalance
	// KindFault is a fault-plan transition on Machine: Label names the
	// fault ("crash", "recover", "slow", "stall", "link", plus the
	// matching "-end" forms), Core the affected core (-1 for
	// machine-level faults), V1 the slowdown factor or scaled drop
	// probability, Dur the added link delay in cycles.
	KindFault
	// KindRetry is a coordinator re-send after a timeout, refused offer
	// or link drop: request V1, attempt number V2, next target Machine;
	// Label is the reason ("timeout", "down", "drop", "shed").
	KindRetry
	// KindFailover is a keyed request served away from its primary:
	// shard V1's traffic went to Machine instead of primary V2 ("hedge"
	// in Label when the send is a hedged duplicate rather than a
	// primary-down reroute).
	KindFailover
	// KindReassign is a shard re-homing: shard V1 moved to Machine from
	// V2 after Dur cycles of simulated data transfer ("begin" events
	// carry the schedule, "done" the landing; Label distinguishes them).
	KindReassign
	// KindHeartbeat is a fleet liveness beat from Machine, published
	// only when health monitoring is enabled (V1 = 1 while the machine
	// is serving).
	KindHeartbeat

	kindCount = int(KindHeartbeat) + 1
)

// String names the kind for exporters and diagnostics.
func (k Kind) String() string {
	switch k {
	case KindMigration:
		return "migration"
	case KindRunSlice:
		return "runslice"
	case KindTaskDone:
		return "taskdone"
	case KindTransition:
		return "transition"
	case KindGrant:
		return "grant"
	case KindAdmit:
		return "admit"
	case KindShed:
		return "shed"
	case KindQueryDone:
		return "querydone"
	case KindRoute:
		return "route"
	case KindRebalance:
		return "rebalance"
	case KindFault:
		return "fault"
	case KindRetry:
		return "retry"
	case KindFailover:
		return "failover"
	case KindReassign:
		return "reassign"
	case KindHeartbeat:
		return "heartbeat"
	default:
		return "unknown"
	}
}

// Event is the bus's single flat record type. One struct for all kinds —
// rather than an interface — keeps Publish allocation-free: values are
// copied into the preallocated ring, never boxed. Field meaning is
// per-kind (see the Kind constants); unused fields are zero.
type Event struct {
	// Kind discriminates the record.
	Kind Kind
	// Now is the virtual time of the event in cycles (the machine clock
	// at publish; for run slices and tasks the *end* of the activity).
	Now uint64
	// TID is the subject thread (migration, run slice) or worker (task).
	TID int64
	// Core is the core acted on; -1 when the event names no core.
	Core int32
	// From is a migration's origin core.
	From int32
	// Start is the begin cycle of span events (run slice, task).
	Start uint64
	// Dur is the span length in cycles (run slice, task, queue wait,
	// query latency).
	Dur uint64
	// V1 and V2 carry per-kind integer payloads (readings, depths,
	// demands, grants — see the Kind constants).
	V1, V2 int64
	// Set is a cpuset bitmask (transition, grant).
	Set uint64
	// Label is a per-kind name: thread name, operator, transition path.
	Label string
	// Tenant names the owning tenant under consolidation ("" for the
	// single-tenant rig).
	Tenant string
	// Machine is the simulated-fleet machine the event belongs to (route,
	// rebalance); zero for single-machine rigs, which never set it.
	Machine int32
}
