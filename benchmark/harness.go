package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"elasticore/internal/hashmix"
)

// harness.go runs one workload: cold set-ups, a warm-up and the timed
// repetitions of the identical deterministic simulation, with every
// repetition checked against the conservation laws and the digest of the
// first one.

// stat is one reported metric value. Timed metrics carry the quartiles
// and the sample count their median was taken over; the two host times
// reported at the reference host speed (probe.go) also carry the raw
// figure.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

// envInfo records the pinned environment of a run.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	OSArch     string `json:"os_arch"`
}

// runReport is everything one run of one workload produced. It is written
// to the out directory; the full run and compare read it back.
type runReport struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Smoke     bool     `json:"smoke,omitempty"`
	Env       envInfo  `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the FNV-64a of the exact simulated result, the same for
	// every repetition of a clean run. It is printed, never pinned.
	Digest  string          `json:"sim_digest"`
	Metrics map[string]stat `json:"metrics"`
	// ProbeReps and ProbeSetups are the host probe's nanoseconds per load
	// between the timed repetitions and between the cold set-ups of an
	// untraced run.
	ProbeReps   *stat `json:"probe_reps_ns,omitempty"`
	ProbeSetups *stat `json:"probe_setups_ns,omitempty"`
	// Spans, BusEvents and TraceFile describe the traced repetitions.
	Spans     map[string]spanSummary `json:"spans,omitempty"`
	BusEvents map[string]uint64      `json:"bus_events,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// pinEnv fixes what the Go runtime would otherwise take from the host or
// the environment, and returns the record of it.
func pinEnv() envInfo {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	return envInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GOGC:       100,
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// sample is the host-side measurement of one repetition plus its result.
type sample struct {
	wall      float64
	mallocs   float64
	allocMB   float64
	gcCycles  float64
	gcPauseMS float64
	res       simResult
}

// runner drives one workload's repetitions into a report.
type runner struct {
	def    workloadDef
	seed   uint64
	smoke  bool
	report *runReport
	// probe is sampled between repetitions and between cold set-ups; nil
	// takes no samples.
	probe *hostProbe

	// first is the digest of the first repetition (report.Digest is set
	// once it is known).
	first uint64
}

func (r *runner) fail(label, why string) {
	r.report.Failed++
	r.report.Failures = append(r.report.Failures, label+": "+why)
}

// operation runs one repetition: a fresh instance (construction is not
// timed), a forced GC, then the timed simulate phase. A panic anywhere is
// contained and counted as a failed operation.
func (r *runner) operation(label string, tr *tracer) (s sample, ok bool) {
	r.report.Attempted++
	defer func() {
		if p := recover(); p != nil {
			r.fail(label, fmt.Sprintf("panic: %v", p))
			ok = false
		}
	}()
	inst, err := r.def.build(r.seed, r.smoke, tr)
	if err != nil {
		r.fail(label, err.Error())
		return s, false
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.begin("simulate")
	t0 := time.Now()
	inst.simulate()
	s.wall = time.Since(t0).Seconds()
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	s.mallocs = float64(m1.Mallocs - m0.Mallocs)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.gcCycles = float64(m1.NumGC - m0.NumGC)
	s.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	s.res = inst.result()
	sp = tr.begin("digest")
	d := digestOf(&s.res)
	tr.end(sp)
	problems := check(&s.res)
	if r.report.Digest == "" {
		r.first = d
		r.report.Digest = fmt.Sprintf("%016x", d)
	} else if d != r.first {
		problems = append(problems, fmt.Sprintf("sim_digest %016x differs from the first repetition's %016x", d, r.first))
	}
	if len(problems) > 0 {
		r.fail(label, strings.Join(problems, "; "))
		return s, false
	}
	return s, true
}

// check applies the conservation laws every repetition must satisfy.
func check(r *simResult) []string {
	problems := append([]string(nil), r.Problems...)
	if got := r.Completed + r.Dropped + r.Failed + r.Abandoned; got != r.Offered {
		problems = append(problems, fmt.Sprintf("requests not conserved: offered %d != completed %d + dropped %d + failed %d + abandoned %d",
			r.Offered, r.Completed, r.Dropped, r.Failed, r.Abandoned))
	}
	if r.Completed <= 0 {
		problems = append(problems, "nothing completed")
	}
	if r.PeakCores > r.CoreLimit {
		problems = append(problems, fmt.Sprintf("peak allocation %d cores exceeds the limit %d", r.PeakCores, r.CoreLimit))
	}
	if r.ElapsedCycles == 0 {
		problems = append(problems, "simulated clock did not advance")
	}
	return problems
}

// digestOf hashes the exact simulated result: counts, latency quantiles,
// every machine's counter window, scheduler stats, the final clock and
// the final allocations.
func digestOf(r *simResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(vs ...uint64) {
		for _, v := range vs {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	u(uint64(r.Offered), uint64(r.Completed), uint64(r.Dropped), uint64(r.Failed), uint64(r.Abandoned))
	u(r.ElapsedCycles, r.ClockEnd, r.LatencyCount, r.P50, r.P99, r.MaxLat)
	f(r.MeanLatencySeconds)
	for _, w := range r.Windows {
		u(w.Now)
		for _, n := range w.Nodes {
			u(n.L3Hits, n.L3Misses, n.HTBytesOut, n.HTBytesIn, n.IMCBytes, n.MinorFaults, n.Invalidations, n.DataTouches)
		}
		for _, c := range w.Cores {
			u(c.BusyCycles, c.IdleCycles)
		}
	}
	u(r.Sched.Spawned, r.Sched.StolenTasks, r.Sched.Migrations, r.Sched.CrossNodeMigrations, r.Sched.TicksRun)
	u(uint64(r.PeakCores))
	for _, n := range r.FinalAlloc {
		u(uint64(n))
	}
	names := make([]string, 0, len(r.Counts))
	for name := range r.Counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		f(r.Counts[name])
	}
	return h.Sum64()
}

// quartiles returns the median and the first and third quartile of vs by
// the method of Python's statistics.quantiles(vs, n=4).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func medianStat(vs []float64) stat {
	q1, med, q3 := quartiles(vs)
	return stat{Value: med, Q1: q1, Q3: q3, N: len(vs)}
}

// put records a metric of the run under its declared unit.
func (rep *runReport) put(name string, s stat) {
	d, ok := findMetric(declared(rep.Trace), name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	s.Unit = d.Unit
	rep.Metrics[name] = s
}

func column(ss []sample, get func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = get(&ss[i])
	}
	return out
}

// coldSeed derives the i-th never-seen workload seed for a cold set-up.
func coldSeed(seed uint64, i int) uint64 {
	return hashmix.Mix64(seed ^ uint64(i+1)<<40)
}

// coldSetups constructs the workload from never-seen seeds, so that every
// construction misses the process-wide dataset cache and pays for dataset
// generation as well as wiring. One sample is the mean of a batch of
// constructions, the batch sized from the first construction so that a
// sample lasts some 20 ms (a single 2 ms construction is at the mercy of
// one GC cycle). It samples until it has both minSamples and budget
// seconds of them.
func (r *runner) coldSetups(minSamples int, budget float64) []float64 {
	var times []float64
	total, batch, next := 0.0, 1, 0
	runtime.GC()
	r.probe.measure()
	probed := 0.0
	for len(times) < minSamples || total < budget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := r.def.build(coldSeed(r.seed, next), r.smoke, nil); err != nil {
				r.report.Attempted++
				r.fail("setup", err.Error())
				return nil
			}
			next++
		}
		dt := time.Since(t0).Seconds()
		total += dt
		if len(times) == 0 && batch == 1 && dt < 0.02 {
			// Calibration: the first construction sizes the batches.
			batch = int(0.02/dt) + 1
			continue
		}
		times = append(times, dt/float64(batch))
		if total-probed >= probeEvery {
			r.probe.measure()
			probed = total
		}
	}
	return times
}

// timed runs the warm-up and then timed repetitions until there are at
// least minReps of them and they add up to seconds of simulate time.
func (r *runner) timed(minReps int, seconds float64) []sample {
	if _, ok := r.operation("warm-up", nil); !ok {
		return nil
	}
	var reps []sample
	total := 0.0
	const maxReps = 15
	r.probe.measure()
	for i := 0; (i < minReps || total < seconds) && i < maxReps; i++ {
		s, ok := r.operation(fmt.Sprintf("rep %d", i+1), nil)
		if !ok {
			continue
		}
		reps = append(reps, s)
		total += s.wall
		r.probe.measure()
	}
	return reps
}

// startProbe gives the runner its host probe, which the caller closes. A
// failure to map the table counts as one failed operation.
func (r *runner) startProbe() bool {
	bits := uint(probeBits)
	if r.smoke {
		bits = probeSmokeBits
	}
	p, err := newHostProbe(bits)
	if err != nil {
		r.report.Attempted++
		r.fail("host probe", err.Error())
		return false
	}
	r.probe = p
	return true
}

// peakRSSMB reads the process's peak resident set from VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runEndToEnd is the untraced run: tracing and profiling off, the nine
// end-to-end metrics out.
func runEndToEnd(def workloadDef, seed uint64, seconds float64, smoke bool) *runReport {
	rep := &runReport{Workload: def.name, Seed: seed, Smoke: smoke, Env: pinEnv(), Metrics: map[string]stat{}}
	r := &runner{def: def, seed: seed, smoke: smoke, report: rep}
	minReps, minCold, coldBudget := 5, 7, 1.0
	if smoke {
		minReps, minCold, coldBudget = 2, 2, 0
	}
	if !r.startProbe() {
		return rep
	}
	probe := r.probe
	defer probe.close()
	reps := r.timed(minReps, seconds)
	probeReps := medianStat(probe.take())
	// The peak is read before the cold set-ups: their never-seen datasets
	// stay in the dataset cache and are no part of the simulate phase.
	rss := peakRSSMB() - probe.residentMB()
	cold := r.coldSetups(minCold, coldBudget)
	probeSetups := medianStat(probe.take())
	if len(reps) == 0 || len(cold) == 0 {
		return rep
	}
	res := &reps[0].res
	rep.ProbeReps, rep.ProbeSetups = &probeReps, &probeSetups
	rep.put("setup_s", atReference(medianStat(cold), probeSetups.Value))
	rep.put("wall_s", atReference(lowerQuartileStat(column(reps, func(s *sample) float64 { return s.wall })), probeReps.Value))
	rep.put("allocs_per_run", medianStat(column(reps, func(s *sample) float64 { return s.mallocs })))
	rep.put("alloc_mb_per_run", medianStat(column(reps, func(s *sample) float64 { return s.allocMB })))
	rep.put("peak_rss_mb", stat{Value: rss})
	ht, imc := res.htBytes()
	rep.put("sim_qps", stat{Value: float64(res.Completed) / res.ElapsedSeconds})
	rep.put("sim_mean_ms", stat{Value: res.MeanLatencySeconds * 1e3})
	rep.put("sim_p99_ms", stat{Value: float64(res.P99) / res.CyclesPerSecond * 1e3})
	rep.put("sim_ht_imc_ratio", stat{Value: float64(ht) / float64(imc)})
	return rep
}

// runPerLayer is the traced run: the kernels, a few untraced repetitions
// for the exact counts and the overhead baseline, then the traced
// repetitions under the CPU and allocation profiles.
func runPerLayer(def workloadDef, seed uint64, smoke bool, outDir string) *runReport {
	rep := &runReport{Workload: def.name, Seed: seed, Trace: true, Smoke: smoke, Env: pinEnv(), Metrics: map[string]stat{}}
	r := &runner{def: def, seed: seed, smoke: smoke, report: rep}
	for name, v := range runKernels(smoke) {
		rep.put(name, stat{Value: v})
	}
	nReps := 3
	if smoke {
		nReps = 2
	}
	if !r.startProbe() {
		return rep
	}
	defer r.probe.close()
	reps := r.timed(nReps, 0)
	if len(reps) == 0 {
		return rep
	}
	traced := r.traced(nReps, outDir)
	if len(traced.walls) == 0 {
		return rep
	}

	res := &reps[0].res
	for _, d := range perLayer {
		if d.Exact {
			rep.put(d.Name, stat{Value: res.Counts[d.Name]})
		}
	}
	rep.put("cluster.workers", stat{Value: float64(res.Workers)})
	for name, v := range traced.shares {
		rep.put(name, stat{Value: v})
	}
	walls := column(reps, func(s *sample) float64 { return s.wall })
	q1, med, q3 := quartiles(walls)
	_, tracedMed, _ := quartiles(traced.walls)
	rep.put("runtime.gc_cycles", medianStat(column(reps, func(s *sample) float64 { return s.gcCycles })))
	rep.put("runtime.gc_pause_ms", medianStat(column(reps, func(s *sample) float64 { return s.gcPauseMS })))
	rep.put("benchmark.wall_iqr_frac", stat{Value: (q3 - q1) / med, N: len(walls)})
	rep.put("benchmark.trace_overhead_frac", stat{Value: tracedMed/med - 1, N: len(traced.walls)})
	// Simulated work: elapsed cycles times the machines that ran them.
	simMcycles := float64(res.ElapsedCycles) * float64(len(res.Windows)) / 1e6
	rep.put("benchmark.sim_mcycles_per_host_s", stat{Value: simMcycles / med})
	rep.put("benchmark.host_probe_ns", medianStat(r.probe.take()))
	return rep
}
