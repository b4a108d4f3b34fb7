package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// perfetto.go renders a recorded event window as Chrome trace-event JSON
// (the "JSON Array Format" both chrome://tracing and ui.perfetto.dev
// open). Timestamps are the events' raw simulated-cycle counts — integer
// and deterministic — so two runs of the same seed produce byte-identical
// traces. The viewer nominally interprets ts as microseconds; at
// simulated clock rates one "microsecond" on screen is one cycle, which
// only rescales the axis.
//
// Track layout:
//
//	pid 1 "cores"     one thread track per core: run slices (X) named by
//	                  the running thread, migrations as instants on the
//	                  destination core's track
//	pid 2 "operators" one track per worker thread: operator tasks (X)
//	pid 3 "control"   one track per tenant: PrT transition firings and
//	                  arbiter grants as instants, plus a "cores <tenant>"
//	                  counter (C) tracking the allocation
//	pid 4 "traffic"   admission queue depth and in-flight sessions as
//	                  counters, sheds and query completions as instants
//	pid 10+m "machine m" one lane per fleet machine: coordinator routing
//	                  decisions as instants plus a per-machine queue-depth
//	                  counter, cluster-arbiter rebalances as instants with
//	                  a core-budget counter, retries and failovers on the
//	                  routing lane, and a "faults" lane carrying fault-plan
//	                  transitions and shard re-assignments (heartbeats are
//	                  deliberately not rendered — one instant per beat per
//	                  machine would dwarf every other lane)
//
// Metadata (M) events name exactly the processes and threads that carry
// at least one event, so every declared track is non-empty by
// construction — the property the CI smoke test asserts with jq.

// perfetto process ids, one per track family.
const (
	perfettoPidCores = 1 + iota
	perfettoPidOperators
	perfettoPidControl
	perfettoPidTraffic
)

// perfettoPidMachineBase starts the per-machine pid family: fleet machine
// m renders under pid base+m, leaving the single-machine pids stable.
const perfettoPidMachineBase = 10

// pftEvent builds one trace event. Maps marshal with sorted keys, so the
// output is deterministic; the exporter runs after the simulation, so its
// allocations cannot perturb a hot path.
func pftEvent(ph, name string, pid int, tid, ts int64, fields map[string]any) map[string]any {
	e := map[string]any{"ph": ph, "name": name, "pid": pid, "tid": tid, "ts": ts}
	for k, v := range fields {
		e[k] = v
	}
	return e
}

// pftTrack is one thread track of the trace: a (pid, tid) pair and the
// name its thread_name metadata gives it.
type pftTrack struct {
	pid  int
	tid  int64
	name string
}

// traceExport accumulates one WriteTrace call: the events rendered so
// far and every track they landed on.
type traceExport struct {
	out    []map[string]any
	tracks map[[2]int64]pftTrack
	// tenants numbers the control tracks in first-seen order, stable
	// because the event stream itself is deterministic.
	tenants map[string]int64
}

// span renders e as a complete event (X) from its Start, lasting Dur.
func (x *traceExport) span(t pftTrack, e *Event, name string, args map[string]any) {
	x.out = append(x.out, pftEvent("X", name, t.pid, t.tid, int64(e.Start),
		map[string]any{"dur": e.Dur, "args": args}))
}

// instant renders e as a thread-scoped instant (i) at Now.
func (x *traceExport) instant(t pftTrack, e *Event, name string, args map[string]any) {
	x.out = append(x.out, pftEvent("i", name, t.pid, t.tid, int64(e.Now),
		map[string]any{"s": "t", "args": args}))
}

// counter renders e as a counter sample (C) at Now.
func (x *traceExport) counter(t pftTrack, e *Event, name string, args map[string]any) {
	x.out = append(x.out, pftEvent("C", name, t.pid, t.tid, int64(e.Now),
		map[string]any{"args": args}))
}

// pftKind is how one event kind renders: the track an event lands on and
// the trace events it becomes there.
type pftKind struct {
	track  func(x *traceExport, e *Event) pftTrack
	render func(x *traceExport, e *Event, t pftTrack)
}

func coreTrack(_ *traceExport, e *Event) pftTrack {
	return pftTrack{perfettoPidCores, int64(e.Core), fmt.Sprintf("core %d", e.Core)}
}

func trafficTrack(*traceExport, *Event) pftTrack {
	return pftTrack{perfettoPidTraffic, 0, "admission"}
}

// controlTrack is the event's tenant's track; the single-tenant rig
// publishes tenant "" and its track is "dbms".
func controlTrack(x *traceExport, e *Event) pftTrack {
	label := cmp.Or(e.Tenant, "dbms")
	tid, ok := x.tenants[label]
	if !ok {
		tid = int64(len(x.tenants))
		x.tenants[label] = tid
	}
	return pftTrack{perfettoPidControl, tid, label}
}

// machineTrack is lane tid of the event's fleet machine.
func machineTrack(tid int64, name string) func(*traceExport, *Event) pftTrack {
	return func(_ *traceExport, e *Event) pftTrack {
		return pftTrack{perfettoPidMachineBase + int(e.Machine), tid, name}
	}
}

// pftKinds is the exporter, one row per rendered kind. A kind without a
// row renders nothing: heartbeats, as the track layout above says.
var pftKinds = [kindCount]pftKind{
	KindRunSlice: {coreTrack, func(x *traceExport, e *Event, t pftTrack) {
		name := e.Label
		if name == "" {
			name = fmt.Sprintf("T%d", e.TID)
		}
		x.span(t, e, name, map[string]any{"tid": e.TID})
	}},
	KindMigration: {coreTrack, func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, fmt.Sprintf("migrate T%d", e.TID), map[string]any{"from": e.From, "to": e.Core})
	}},
	KindTaskDone: {
		func(_ *traceExport, e *Event) pftTrack {
			return pftTrack{perfettoPidOperators, e.TID, fmt.Sprintf("worker T%d", e.TID)}
		},
		func(x *traceExport, e *Event, t pftTrack) {
			args := map[string]any{}
			if e.Tenant != "" {
				args["tenant"] = e.Tenant
			}
			x.span(t, e, e.Label, args)
		},
	},
	KindTransition: {controlTrack, func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, e.Label, map[string]any{"u": e.V1, "nalloc": e.V2, "core": e.Core})
		x.counter(t, e, "cores "+t.name, map[string]any{"cores": e.V2})
	}},
	KindGrant: {controlTrack, func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "grant "+t.name, map[string]any{"demand": e.V1, "grant": e.V2})
		x.counter(t, e, "cores "+t.name, map[string]any{"cores": e.V2})
	}},
	KindAdmit: {trafficTrack, func(x *traceExport, e *Event, t pftTrack) {
		x.counter(t, e, "queue depth", map[string]any{"queued": e.V1, "inflight": e.V2})
	}},
	KindShed: {trafficTrack, func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "shed", map[string]any{"queued": e.V1})
	}},
	KindQueryDone: {trafficTrack, func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "query done", map[string]any{"latency": e.Dur, "service": e.V1})
	}},
	KindRoute: {machineTrack(0, "routing"), func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "route "+e.Label, map[string]any{"shard": e.V2, "queued": e.V1})
		x.counter(t, e, "queue depth", map[string]any{"queued": e.V1})
	}},
	KindRebalance: {machineTrack(1, "rebalance"), func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "rebalance", map[string]any{"delta": e.V1, "cores": e.V2, "latency": e.Dur})
		x.counter(t, e, "core budget", map[string]any{"cores": e.V2})
	}},
	KindFault: {machineTrack(2, "faults"), func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "fault "+e.Label, map[string]any{"core": e.Core, "v": e.V1, "delay": e.Dur})
	}},
	KindRetry: {machineTrack(0, "routing"), func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "retry "+e.Label, map[string]any{"req": e.V1, "attempt": e.V2})
	}},
	KindFailover: {machineTrack(0, "routing"), func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "failover "+e.Label, map[string]any{"shard": e.V1, "primary": e.V2})
	}},
	KindReassign: {machineTrack(2, "faults"), func(x *traceExport, e *Event, t pftTrack) {
		x.instant(t, e, "reassign "+e.Label, map[string]any{"shard": e.V1, "from": e.V2, "transfer": e.Dur})
	}},
}

// pidNames names the single-machine track families; fleet machines are
// named by their index.
var pidNames = map[int]string{
	perfettoPidCores:     "cores",
	perfettoPidOperators: "operators",
	perfettoPidControl:   "control",
	perfettoPidTraffic:   "traffic",
}

// metadata names every used process and thread, in (pid, tid) order.
func (x *traceExport) metadata() []map[string]any {
	keys := make([][2]int64, 0, len(x.tracks))
	for k := range x.tracks {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	meta := make([]map[string]any, 0, len(keys)+4)
	for i, k := range keys {
		t := x.tracks[k]
		if i == 0 || keys[i-1][0] != k[0] {
			name, ok := pidNames[t.pid]
			if !ok {
				name = fmt.Sprintf("machine %d", t.pid-perfettoPidMachineBase)
			}
			meta = append(meta, pftEvent("M", "process_name", t.pid, 0, 0,
				map[string]any{"args": map[string]any{"name": name}}))
		}
		meta = append(meta, pftEvent("M", "thread_name", t.pid, t.tid, 0,
			map[string]any{"args": map[string]any{"name": t.name}}))
	}
	return meta
}

// WriteTrace renders the events as Chrome trace-event JSON onto w.
func WriteTrace(w io.Writer, events []Event) error {
	x := traceExport{
		out:     make([]map[string]any, 0, len(events)+64),
		tracks:  map[[2]int64]pftTrack{},
		tenants: map[string]int64{},
	}
	for i := range events {
		e := &events[i]
		k := pftKinds[e.Kind]
		if k.track == nil {
			continue
		}
		t := k.track(&x, e)
		key := [2]int64{int64(t.pid), t.tid}
		if _, ok := x.tracks[key]; !ok {
			x.tracks[key] = t
		}
		k.render(&x, e, t)
	}
	doc := map[string]any{
		"traceEvents":     append(x.metadata(), x.out...),
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"clock": "simulated-cycles"},
	}
	return json.NewEncoder(w).Encode(doc)
}

// WriteTrace renders the bus's retained window (see WriteTrace).
func (b *Bus) WriteTrace(w io.Writer) error { return WriteTrace(w, b.Events()) }

// WriteTraceFile renders the events into a file at path.
func WriteTraceFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
