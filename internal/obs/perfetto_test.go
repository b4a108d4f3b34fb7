package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// perfettoEvents is a synthetic window covering every kind, the input to
// the schema checks below.
func perfettoEvents() []Event {
	return []Event{
		{Kind: KindRunSlice, Now: 150, TID: 7, Core: 2, Start: 100, Dur: 50, Label: "worker"},
		{Kind: KindMigration, Now: 160, TID: 7, Core: 3, From: 2},
		{Kind: KindTaskDone, Now: 220, TID: 7, Core: -1, Start: 150, Dur: 70, Label: "algebra.subselect", Tenant: "alpha"},
		{Kind: KindTransition, Now: 250, Core: 4, V1: 93, V2: 3, Set: 0b111, Label: "t1-Overload-t5", Tenant: "alpha"},
		{Kind: KindGrant, Now: 260, Core: -1, V1: 4, V2: 3, Set: 0b111, Tenant: "alpha"},
		{Kind: KindAdmit, Now: 300, Core: -1, Dur: 20, V1: 5, V2: 2},
		{Kind: KindShed, Now: 310, Core: -1, V1: 8},
		{Kind: KindQueryDone, Now: 400, Core: -1, Dur: 120, V1: 90},
		{Kind: KindRoute, Now: 410, Core: -1, V1: 3, V2: 5, Label: "keyed", Machine: 1},
		{Kind: KindRebalance, Now: 420, Core: -1, Dur: 5000, V1: 2, V2: 6, Machine: 2},
	}
}

// TestPerfettoMachineLanes: cluster events render on per-machine pids in
// the machine family, and those processes are named "machine N".
func TestPerfettoMachineLanes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, perfettoEvents()); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	names := map[float64]string{} // pid -> process_name
	pids := map[string]float64{}  // event name -> pid
	for _, e := range events {
		pid, _ := e["pid"].(float64)
		name, _ := e["name"].(string)
		if ph, _ := e["ph"].(string); ph == "M" && name == "process_name" {
			args, _ := e["args"].(map[string]any)
			pname, _ := args["name"].(string)
			names[pid] = pname
			continue
		}
		pids[name] = pid
	}
	if got := pids["route keyed"]; got != float64(perfettoPidMachineBase+1) {
		t.Fatalf("route event on pid %v, want %d", got, perfettoPidMachineBase+1)
	}
	if got := pids["rebalance"]; got != float64(perfettoPidMachineBase+2) {
		t.Fatalf("rebalance event on pid %v, want %d", got, perfettoPidMachineBase+2)
	}
	if got := names[float64(perfettoPidMachineBase+1)]; got != "machine 1" {
		t.Fatalf("machine pid named %q, want %q", got, "machine 1")
	}
	if got := names[float64(perfettoPidMachineBase+2)]; got != "machine 2" {
		t.Fatalf("machine pid named %q, want %q", got, "machine 2")
	}
}

// decodeTrace unmarshals exporter output and returns the traceEvents.
func decodeTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestPerfettoSchema validates the trace-event contract: every event
// carries name/ph/pid/tid/ts, ph is one of the emitted phases, X events
// carry a duration, and every (pid, tid) named by thread_name metadata
// carries at least one real event — the property the CI jq check reruns
// on a live elasticbench trace.
func TestPerfettoSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, perfettoEvents()); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	if len(events) == 0 {
		t.Fatal("empty traceEvents")
	}
	declared := map[[2]float64]bool{} // thread_name metadata tracks
	carried := map[[2]float64]bool{}  // tracks with >= 1 real event
	phases := map[string]bool{"X": true, "C": true, "i": true, "M": true}
	for i, e := range events {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		if !phases[ph] {
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
		if name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		for _, field := range []string{"pid", "tid", "ts"} {
			if _, ok := e[field].(float64); !ok {
				t.Fatalf("event %d (%s): missing numeric %s", i, name, field)
			}
		}
		pid, tid := e["pid"].(float64), e["tid"].(float64)
		switch ph {
		case "M":
			if name == "thread_name" {
				declared[[2]float64{pid, tid}] = true
			}
		case "X":
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("event %d (%s): X without dur", i, name)
			}
			carried[[2]float64{pid, tid}] = true
		default:
			carried[[2]float64{pid, tid}] = true
		}
	}
	if len(declared) == 0 {
		t.Fatal("no thread_name metadata emitted")
	}
	for track := range declared {
		if !carried[track] {
			t.Errorf("track pid=%v tid=%v declared but empty", track[0], track[1])
		}
	}
	// Every kind produced at least one event: 8 inputs, plus metadata.
	if len(events) < len(perfettoEvents())+3 {
		t.Fatalf("only %d events for %d inputs", len(events), len(perfettoEvents()))
	}
}

// TestPerfettoDeterministic: same events, same bytes — map keys are
// sorted by encoding/json and track numbering follows the stream.
func TestPerfettoDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTrace(&a, perfettoEvents()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, perfettoEvents()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same events differ")
	}
}

// TestPerfettoBusRoundTrip: exporting through the Bus uses the retained
// ring window.
func TestPerfettoBusRoundTrip(t *testing.T) {
	bus := NewBus(4)
	for _, e := range perfettoEvents() {
		bus.Publish(e)
	}
	var buf bytes.Buffer
	if err := bus.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	real := 0
	for _, e := range events {
		if ph, _ := e["ph"].(string); ph != "M" {
			real++
		}
	}
	// The ring kept the last 4 inputs: shed and querydone (1 event each),
	// route and rebalance (2 each: instant + counter).
	if real != 6 {
		t.Fatalf("exported %d real events from a 4-slot ring, want 6", real)
	}
}

// everyKindEvents holds one event of every kind WriteTrace renders, plus
// one heartbeat, which it must not render. The fields reach the
// exporter's branches: an unlabelled run slice, a task with a tenant, a
// transition of the single-tenant rig and a grant of a named tenant, and
// fleet events spread over three machines.
func everyKindEvents() []Event {
	return []Event{
		{Kind: KindRunSlice, Now: 150, TID: 7, Core: 2, Start: 100, Dur: 50},
		{Kind: KindMigration, Now: 160, TID: 7, Core: 3, From: 2},
		{Kind: KindTaskDone, Now: 220, TID: 7, Core: -1, Start: 150, Dur: 70, Label: "algebra.subselect", Tenant: "alpha"},
		{Kind: KindTransition, Now: 250, Core: 4, V1: 93, V2: 3, Set: 0b111, Label: "t1-Overload-t5"},
		{Kind: KindGrant, Now: 260, Core: -1, V1: 4, V2: 3, Set: 0b111, Tenant: "beta"},
		{Kind: KindAdmit, Now: 300, Core: -1, Dur: 20, V1: 5, V2: 2},
		{Kind: KindShed, Now: 310, Core: -1, V1: 8},
		{Kind: KindQueryDone, Now: 400, Core: -1, Dur: 120, V1: 90},
		{Kind: KindRoute, Now: 410, Core: -1, V1: 3, V2: 5, Label: "keyed", Machine: 1},
		{Kind: KindRebalance, Now: 420, Core: -1, Dur: 5000, V1: 2, V2: 6, Machine: 2},
		{Kind: KindFault, Now: 430, Core: 1, Dur: 80, V1: 4, Label: "slow", Machine: 1},
		{Kind: KindRetry, Now: 440, Core: -1, V1: 17, V2: 2, Label: "timeout", Machine: 3},
		{Kind: KindFailover, Now: 450, Core: -1, V1: 6, V2: 1, Label: "crash", Machine: 2},
		{Kind: KindReassign, Now: 460, Core: -1, Dur: 900, V1: 6, V2: 1, Label: "recover", Machine: 2},
		{Kind: KindHeartbeat, Now: 470, Core: -1, Machine: 5},
	}
}

// TestPerfettoEveryKindBytes pins the exporter's exact output for one
// event of every kind: track numbering, metadata order, names, argument
// keys and the JSON encoding itself. A heartbeat renders nothing, so the
// window without it exports the same bytes. The pinned file is
// testdata/every_kind.trace.json; a deliberate format change rewrites it
// by hand and says why.
func TestPerfettoEveryKindBytes(t *testing.T) {
	events := everyKindEvents()
	var got, noBeat bytes.Buffer
	if err := WriteTrace(&got, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&noBeat, events[:len(events)-1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), noBeat.Bytes()) {
		t.Fatal("a heartbeat changed the exported trace")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "every_kind.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("trace bytes differ from the pinned file:\n got %s\nwant %s", got.Bytes(), want)
	}
}
