package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// compare.go judges one report against another, metric by metric and
// workload by workload, and holds the workload-separation self-check.

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"     // worse than the bound allows, and by more than the spread
	verdictUnresolved = "unresolved"    // the medians are less certain than the bound is wide
	verdictChanged    = "changed-exact" // a simulated quantity differs at all at the same seed
)

// medianSpread is how far the reported figure of a timed metric may be
// off, as a share of it: about two standard errors of a median of N
// samples, 2 * 1.25 * (IQR / 1.35) / sqrt(N). With five repetitions
// behind wall_s that is 0.83 of their interquartile range; the lower
// quartile that wall_s reports is no more certain than the median.
func medianSpread(s stat) float64 {
	if s.N == 0 || s.Value == 0 {
		return 0
	}
	return 1.86 * (s.Q3 - s.Q1) / (math.Abs(s.Value) * math.Sqrt(float64(s.N)))
}

// judge compares b against the baseline a for one declared metric.
func judge(d metricDef, a, b stat, sameSeed bool) string {
	if d.Exact && sameSeed {
		if a.Value != b.Value {
			return verdictChanged
		}
		return verdictOK
	}
	if d.Bound == 0 {
		return verdictOK
	}
	worse := 0.0
	if a.Value != 0 {
		worse = (b.Value - a.Value) / math.Abs(a.Value)
		if d.Better == "higher" {
			worse = -worse
		}
	}
	spread := math.Max(medianSpread(a), medianSpread(b))
	switch {
	case worse > d.Bound && worse > spread:
		return verdictRegressed
	case spread > d.Bound:
		return verdictUnresolved
	}
	return verdictOK
}

func findRun(f *fullReport, workload string, traced bool) *runReport {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == traced {
			return r
		}
	}
	return nil
}

// compareReports prints one row per end-to-end metric and workload, the
// sim_digest row, and every exact per-layer count that changed. It
// returns how many rows came out with each verdict.
func compareReports(a, b *fullReport) map[string]int {
	tally := map[string]int{}
	fmt.Printf("%-14s %-22s %16s %16s %8s  %s\n", "workload", "metric", "A", "B", "B/A-1", "verdict")
	row := func(workload, metric string, av, bv float64, verdict string) {
		rel := 0.0
		if av != 0 {
			rel = bv/av - 1
		}
		fmt.Printf("%-14s %-22s %16.6g %16.6g %+8.3f  %s\n", workload, metric, av, bv, rel, verdict)
		tally[verdict]++
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			ra, rb := findRun(a, def.name, traced), findRun(b, def.name, traced)
			if ra == nil || rb == nil {
				continue
			}
			same := ra.Seed == rb.Seed && ra.Smoke == rb.Smoke
			for _, d := range declared(traced) {
				sa, okA := ra.Metrics[d.Name]
				sb, okB := rb.Metrics[d.Name]
				if !okA || !okB {
					continue
				}
				v := judge(d, sa, sb, same)
				// Per-layer rows carry no bound: only a changed count is news.
				if !traced || v != verdictOK {
					row(def.name, d.Name, sa.Value, sb.Value, v)
				}
			}
			if !traced && same {
				v := verdictOK
				if ra.Digest != rb.Digest {
					v = verdictChanged
				}
				fmt.Printf("%-14s %-22s %16s %16s %8s  %s\n", def.name, "sim_digest", ra.Digest, rb.Digest, "", v)
				tally[v]++
			}
		}
	}
	return tally
}

// sepCheck is one workload-separation check: the property that makes a
// workload the right one to show (or to not show) a layer's optimisation.
type sepCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// separation evaluates the self-check over the traced runs of a report;
// nil when a traced run is missing.
func separation(f *fullReport) []sepCheck {
	get := func(workload, metric string) float64 {
		return findRun(f, workload, true).Metrics[metric].Value
	}
	for _, def := range workloads {
		if r := findRun(f, def.name, true); r == nil || len(r.Metrics) == 0 {
			return nil
		}
	}
	var out []sepCheck
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, sepCheck{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	pb, pm := get("burst-open", "petrinet.alloc_share"), get("mixed-closed", "petrinet.alloc_share")
	add("petrinet.alloc_share on burst-open >= 5x mixed-closed", pb >= 5*pm, "%.4f vs %.4f", pb, pm)

	dm, dbo := get("mixed-closed", "db.cpu_share"), get("burst-open", "db.cpu_share")
	add("db.cpu_share on mixed-closed >= 3x burst-open", dm >= 3*dbo, "%.4f vs %.4f", dm, dbo)

	// The barrier, the coordinator and the cluster arbiter show as cluster
	// frames and as goroutine scheduling. Which of the two fleets has more
	// of them is within the noise of the shares (0.15 to 0.20 on both, see
	// README.md), so the check is fleets against single machines.
	barrier := func(w string) float64 { return get(w, "runtime.sched_cpu_share") + get(w, "cluster.cpu_share") }
	fleets, singles, detail := math.Inf(1), 0.0, ""
	for _, def := range workloads {
		v := barrier(def.name)
		detail += fmt.Sprintf("%s %.4f ", def.name, v)
		if strings.HasPrefix(def.name, "fleet-") {
			fleets = math.Min(fleets, v)
		} else {
			singles = math.Max(singles, v)
		}
	}
	add("runtime.sched_cpu_share + cluster.cpu_share on both fleets >= 10x any single-machine workload", fleets >= 10*singles, "%s", detail)

	only := func(name, owner string, value func(w string) float64) {
		ok, detail := value(owner) > 0, ""
		for _, def := range workloads {
			v := value(def.name)
			detail += fmt.Sprintf("%s %g ", def.name, v)
			if def.name != owner && v != 0 {
				ok = false
			}
		}
		add(name+" non-zero only on "+owner, ok, "%s", detail)
	}
	// The tenant check is on the arbiter's rounds and on allocated
	// objects, not on CPU samples: cluster.ClusterArbiter calls
	// tenant.Apportion, so the fleets show a trace of tenant samples too,
	// and the tenant package's own frames are under 0.2 % of the samples
	// even on tenants-htap.
	only("tenant.grants", "tenants-htap", func(w string) float64 { return get(w, "tenant.grants") })
	ta := get("tenants-htap", "tenant.alloc_share")
	apart, detail := ta > 0, ""
	for _, def := range workloads {
		v := get(def.name, "tenant.alloc_share")
		detail += fmt.Sprintf("%s %.4f ", def.name, v)
		if def.name != "tenants-htap" && ta < 5*v {
			apart = false
		}
	}
	add("tenant.alloc_share on tenants-htap >= 5x any other workload", apart, "%s", detail)
	only("cluster.retried + hedged + failovers", "fleet-faults", func(w string) float64 {
		return get(w, "cluster.retried") + get(w, "cluster.hedged") + get(w, "cluster.failovers")
	})
	return out
}

func readReport(path string) (*fullReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &fullReport{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareMain is `benchmark compare A.json B.json`: exit 1 when any row
// regressed, any operation in B failed, or either report (unless it is a
// smoke report) fails the separation self-check.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	tally := compareReports(a, b)
	bad := tally[verdictRegressed]
	for _, r := range b.Runs {
		if r.Failed > 0 {
			fmt.Printf("B has %d failed operations on %s\n", r.Failed, r.Workload)
			bad++
		}
	}
	for i, f := range []*fullReport{a, b} {
		if len(f.Runs) > 0 && f.Runs[0].Smoke {
			continue
		}
		for _, c := range separation(f) {
			if !c.OK {
				fmt.Printf("%c fails separation: %s (%s)\n", 'A'+i, c.Name, c.Detail)
				bad++
			}
		}
	}
	fmt.Printf("ok %d  regressed %d  unresolved %d  changed-exact %d\n",
		tally[verdictOK], tally[verdictRegressed], tally[verdictUnresolved], tally[verdictChanged])
	if bad > 0 {
		return 1
	}
	return 0
}
