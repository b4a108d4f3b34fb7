package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"elasticore/internal/obs"
)

// trace.go is the traced run's machinery, all of it on the benchmark's
// side of the layer boundaries: spans around every call the benchmark
// makes into a layer and every callback the drivers hand back, an event
// counter on the telemetry bus, and the CPU and allocation profiles whose
// stacks give each layer its share.

// span is one timed interval. Spans live in memory until the run ends.
type span struct {
	name       string
	rep        int
	parent     int // index into tracer.spans, -1 for a root
	start, end time.Duration
}

// tracer records spans and bus events of the traced repetitions. A nil
// tracer is the untraced run: every method is a no-op on it.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	rep   int
	// kinds counts bus events by obs.Kind, at the layer boundaries.
	kinds [256]uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, rep: t.rep, parent: parent, start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// watch counts every event published on the workload's own bus.
func (t *tracer) watch(b *obs.Bus) {
	if t == nil {
		return
	}
	b.SubscribeAll(func(e obs.Event) { t.kinds[e.Kind]++ })
}

// newBus lights a workload that runs dark by design, for the traced
// repetitions only; nil when untraced.
func (t *tracer) newBus() *obs.Bus {
	if t == nil {
		return nil
	}
	b := obs.NewBus(1 << 10)
	t.watch(b)
	return b
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the time covered by child spans.
	SelfMS float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanSummary {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := map[string]spanSummary{}
	for i, s := range t.spans {
		sum := out[s.name]
		d := s.end - s.start
		sum.Count++
		sum.TotalMS += d.Seconds() * 1e3
		sum.SelfMS += (d - children[i]).Seconds() * 1e3
		out[s.name] = sum
	}
	return out
}

func (t *tracer) busEvents() map[string]uint64 {
	out := map[string]uint64{}
	for k, n := range t.kinds {
		if n > 0 {
			out[obs.Kind(k).String()] = n
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it at
// ui.perfetto.dev or chrome://tracing): one lane per repetition, span
// ids and parents in args, the bus event counts as one counter sample.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, 0, len(t.spans)+1)
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.rep,
			Args: map[string]any{"id": i, "parent": s.parent, "rep": s.rep},
		})
	}
	counts := map[string]any{}
	for k, n := range t.busEvents() {
		counts[k] = n
	}
	events = append(events, event{Name: "bus_events", Ph: "C", Ts: us(time.Since(t.t0)), Pid: 1, Args: counts})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedOut is what the traced repetitions measured.
type tracedOut struct {
	walls  []float64
	shares map[string]float64
}

// cpuProfileHz is the CPU sampling rate of the traced repetitions: five
// times the default, so that three repetitions give a few thousand samples.
const cpuProfileHz = 500

// memProfileBytes is the allocation sampling interval of the traced
// repetitions: a few thousand sampled stacks per repetition. At 4 KiB the
// sampling itself cost burst-open 70-80 % more wall time and, landing in
// the allocating layers, moved petrinet.cpu_share from 0.36 to 0.46; at
// 128 KiB the overhead is 3 % and the allocation shares are the same to
// two digits.
const memProfileBytes = 128 << 10

// traced runs n repetitions with spans, the bus counter and both profiles
// on, and writes the trace and the profiles under outDir.
func (r *runner) traced(n int, outDir string) tracedOut {
	var out tracedOut
	fail := func(err error) tracedOut {
		r.report.Attempted++
		r.fail("trace", err.Error())
		return tracedOut{}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", r.def.name, r.seed))
	cpuPath, allocPath := base+".cpu.pprof", base+".allocs.pprof"
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return fail(err)
	}
	// The rate must be set before StartCPUProfile, which then finds it set
	// and complains on stderr that it cannot set its own; that is expected.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		return fail(err)
	}
	runtime.MemProfileRate = memProfileBytes

	tr := newTracer()
	for i := 0; i < n; i++ {
		tr.rep = i + 1
		if s, ok := r.operation(fmt.Sprintf("traced rep %d", i+1), tr); ok {
			out.walls = append(out.walls, s.wall)
		}
	}

	pprof.StopCPUProfile()
	err = cpuFile.Close()
	// The allocation profile is complete only up to the last finished GC
	// cycle but one; two cycles publish everything the repetitions did.
	runtime.GC()
	runtime.GC()
	if err == nil {
		err = writeAllocProfile(allocPath)
	}
	runtime.MemProfileRate = 0
	if err == nil {
		out.shares, err = layerShares(cpuPath, allocPath)
	}
	if err == nil {
		r.report.TraceFile = base + ".trace.json"
		err = tr.writeChrome(r.report.TraceFile)
	}
	r.report.Spans = tr.summary()
	r.report.BusEvents = tr.busEvents()
	if err != nil {
		return fail(err)
	}
	return out
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerShares attributes every CPU sample and every sampled allocated
// object to a layer and returns the shares by metric name. The CPU shares
// (layers plus the three runtime.* shares) sum to 1; the allocation
// shares leave out objects allocated outside every layer.
func layerShares(cpuPath, allocPath string) (map[string]float64, error) {
	shares := map[string]float64{}
	cpu, err := profileByLayer(cpuPath, "")
	if err != nil {
		return nil, err
	}
	allocs, err := profileByLayer(allocPath, "alloc_objects")
	if err != nil {
		return nil, err
	}
	cpuTotal, allocTotal := 0.0, 0.0
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, v := range allocs {
		allocTotal += v
	}
	frac := func(v, total float64) float64 {
		if total == 0 {
			return 0
		}
		return v / total
	}
	for _, layer := range shareLayers {
		shares[layer+".cpu_share"] = frac(cpu[layer], cpuTotal)
		if layer != "faults" {
			shares[layer+".alloc_share"] = frac(allocs[layer], allocTotal)
		}
	}
	for _, k := range []string{"gc", "sched", "other"} {
		shares["runtime."+k+"_cpu_share"] = frac(cpu["runtime."+k], cpuTotal)
	}
	return shares, nil
}

// profileByLayer sums a profile's sample values by layer. It reads the
// stacks from `go tool pprof -traces`, which ships with the toolchain and
// needs no network; the module gains no dependency for it.
func profileByLayer(path, sampleIndex string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	cmd := exec.Command("go", append(args, path)...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	sums := map[string]float64{}
	var frames []string
	value := 0.0
	flush := func() {
		if len(frames) > 0 {
			sums[classify(frames)] += value
		}
		frames, value = frames[:0], 0
	}
	inStacks := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----") {
			flush()
			inStacks = true
			continue
		}
		fields := strings.Fields(line)
		if !inStacks || len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			// First line of a stack: the sample value, then the leaf frame.
			v, ok := parseSampleValue(fields[0])
			if !ok || len(fields) < 2 {
				continue
			}
			value = v
			fields = fields[1:]
		}
		frames = append(frames, strings.Join(fields, " "))
	}
	flush()
	return sums, nil
}

// parseSampleValue reads a pprof value such as "10ms", "1.2s" or "4096".
func parseSampleValue(s string) (float64, bool) {
	end := len(s)
	for end > 0 && (s[end-1] < '0' || s[end-1] > '9') && s[end-1] != '.' {
		end--
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, false
	}
	switch s[end:] {
	case "us", "µs":
		v /= 1e6
	case "ms":
		v /= 1e3
	case "ns":
		v /= 1e9
	case "min", "mins":
		v *= 60
	case "hrs":
		v *= 3600
	}
	return v, true
}

// Frames that mark a sample with no layer frame as garbage collection or
// as goroutine scheduling; everything else without a layer frame —
// system calls, the benchmark's own code — is runtime.other.
var (
	gcFrames    = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.sweepone"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goexit0", "runtime.newproc", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mstart", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.gosched_m", "runtime.semacquire", "runtime.semrelease", "sync.(*WaitGroup)"}
)

// classify attributes one stack (leaf first) to the innermost frame
// inside elasticore/internal/<layer>, or to a runtime.* class.
func classify(frames []string) string {
	const prefix = "elasticore/internal/"
	for _, fr := range frames {
		i := strings.Index(fr, prefix)
		if i < 0 {
			continue
		}
		pkg := fr[i+len(prefix):]
		if j := strings.IndexAny(pkg, "./"); j >= 0 {
			pkg = pkg[:j]
		}
		for _, layer := range shareLayers {
			if pkg == layer {
				return layer
			}
		}
	}
	for _, class := range []struct {
		name    string
		markers []string
	}{{"runtime.gc", gcFrames}, {"runtime.sched", schedFrames}} {
		for _, fr := range frames {
			for _, m := range class.markers {
				if strings.HasPrefix(fr, m) {
					return class.name
				}
			}
		}
	}
	return "runtime.other"
}
