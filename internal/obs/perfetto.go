package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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

// tenantLabel names a tenant track; the single-tenant rig publishes "".
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "dbms"
	}
	return tenant
}

// WriteTrace renders the events as Chrome trace-event JSON onto w.
func WriteTrace(w io.Writer, events []Event) error {
	out := make([]map[string]any, 0, len(events)+64)

	type track struct {
		pid  int
		tid  int64
		name string
	}
	tracks := map[[2]int64]track{}
	use := func(pid int, tid int64, name string) {
		key := [2]int64{int64(pid), tid}
		if _, ok := tracks[key]; !ok {
			tracks[key] = track{pid: pid, tid: tid, name: name}
		}
	}
	// Tenant control tracks are numbered in first-seen order — stable
	// because the event stream itself is deterministic.
	tenantTID := map[string]int64{}
	controlTID := func(tenant string) int64 {
		if tid, ok := tenantTID[tenant]; ok {
			return tid
		}
		tid := int64(len(tenantTID))
		tenantTID[tenant] = tid
		return tid
	}

	for _, e := range events {
		switch e.Kind {
		case KindRunSlice:
			name := e.Label
			if name == "" {
				name = fmt.Sprintf("T%d", e.TID)
			}
			use(perfettoPidCores, int64(e.Core), fmt.Sprintf("core %d", e.Core))
			out = append(out, pftEvent("X", name, perfettoPidCores, int64(e.Core), int64(e.Start),
				map[string]any{"dur": e.Dur, "args": map[string]any{"tid": e.TID}}))
		case KindMigration:
			use(perfettoPidCores, int64(e.Core), fmt.Sprintf("core %d", e.Core))
			out = append(out, pftEvent("i", fmt.Sprintf("migrate T%d", e.TID), perfettoPidCores, int64(e.Core), int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"from": e.From, "to": e.Core}}))
		case KindTaskDone:
			use(perfettoPidOperators, e.TID, fmt.Sprintf("worker T%d", e.TID))
			args := map[string]any{}
			if e.Tenant != "" {
				args["tenant"] = e.Tenant
			}
			out = append(out, pftEvent("X", e.Label, perfettoPidOperators, e.TID, int64(e.Start),
				map[string]any{"dur": e.Dur, "args": args}))
		case KindTransition:
			label := tenantLabel(e.Tenant)
			tid := controlTID(label)
			use(perfettoPidControl, tid, label)
			out = append(out, pftEvent("i", e.Label, perfettoPidControl, tid, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"u": e.V1, "nalloc": e.V2, "core": e.Core}}))
			out = append(out, pftEvent("C", "cores "+label, perfettoPidControl, tid, int64(e.Now),
				map[string]any{"args": map[string]any{"cores": e.V2}}))
		case KindGrant:
			label := tenantLabel(e.Tenant)
			tid := controlTID(label)
			use(perfettoPidControl, tid, label)
			out = append(out, pftEvent("i", "grant "+label, perfettoPidControl, tid, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"demand": e.V1, "grant": e.V2}}))
			out = append(out, pftEvent("C", "cores "+label, perfettoPidControl, tid, int64(e.Now),
				map[string]any{"args": map[string]any{"cores": e.V2}}))
		case KindAdmit:
			use(perfettoPidTraffic, 0, "admission")
			out = append(out, pftEvent("C", "queue depth", perfettoPidTraffic, 0, int64(e.Now),
				map[string]any{"args": map[string]any{"queued": e.V1, "inflight": e.V2}}))
		case KindShed:
			use(perfettoPidTraffic, 0, "admission")
			out = append(out, pftEvent("i", "shed", perfettoPidTraffic, 0, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"queued": e.V1}}))
		case KindQueryDone:
			use(perfettoPidTraffic, 0, "admission")
			out = append(out, pftEvent("i", "query done", perfettoPidTraffic, 0, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"latency": e.Dur, "service": e.V1}}))
		case KindRoute:
			pid := perfettoPidMachineBase + int(e.Machine)
			use(pid, 0, "routing")
			out = append(out, pftEvent("i", "route "+e.Label, pid, 0, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"shard": e.V2, "queued": e.V1}}))
			out = append(out, pftEvent("C", "queue depth", pid, 0, int64(e.Now),
				map[string]any{"args": map[string]any{"queued": e.V1}}))
		case KindRebalance:
			pid := perfettoPidMachineBase + int(e.Machine)
			use(pid, 1, "rebalance")
			out = append(out, pftEvent("i", "rebalance", pid, 1, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"delta": e.V1, "cores": e.V2, "latency": e.Dur}}))
			out = append(out, pftEvent("C", "core budget", pid, 1, int64(e.Now),
				map[string]any{"args": map[string]any{"cores": e.V2}}))
		case KindFault:
			pid := perfettoPidMachineBase + int(e.Machine)
			use(pid, 2, "faults")
			out = append(out, pftEvent("i", "fault "+e.Label, pid, 2, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"core": e.Core, "v": e.V1, "delay": e.Dur}}))
		case KindRetry:
			pid := perfettoPidMachineBase + int(e.Machine)
			use(pid, 0, "routing")
			out = append(out, pftEvent("i", "retry "+e.Label, pid, 0, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"req": e.V1, "attempt": e.V2}}))
		case KindFailover:
			pid := perfettoPidMachineBase + int(e.Machine)
			use(pid, 0, "routing")
			out = append(out, pftEvent("i", "failover "+e.Label, pid, 0, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"shard": e.V1, "primary": e.V2}}))
		case KindReassign:
			pid := perfettoPidMachineBase + int(e.Machine)
			use(pid, 2, "faults")
			out = append(out, pftEvent("i", "reassign "+e.Label, pid, 2, int64(e.Now),
				map[string]any{"s": "t", "args": map[string]any{"shard": e.V1, "from": e.V2, "transfer": e.Dur}}))
		}
	}

	// Name every used process and thread, in (pid, tid) order.
	keys := make([][2]int64, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	meta := make([]map[string]any, 0, len(keys)+4)
	seenPid := map[int]bool{}
	pidNames := map[int]string{
		perfettoPidCores:     "cores",
		perfettoPidOperators: "operators",
		perfettoPidControl:   "control",
		perfettoPidTraffic:   "traffic",
	}
	for _, k := range keys {
		t := tracks[k]
		if !seenPid[t.pid] {
			seenPid[t.pid] = true
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

	doc := map[string]any{
		"traceEvents":     append(meta, out...),
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"clock": "simulated-cycles"},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
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
