package experiments

import (
	"context"

	"elasticore/internal/metrics"
	"elasticore/internal/numa"
	"elasticore/internal/workload"
)

// fig20.go reproduces Figure 20: per-query CPU and HT energy estimates
// for the OS scheduler versus the adaptive mode, using the paper's model
// (Average CPU Power per socket, per-bit HT transfer energy).

// runFig20 executes the per-query energy comparison.
func runFig20(ctx context.Context, c Config, obs Observer) (*Result, error) {
	model := metrics.DefaultEnergyModel()
	var osPhases, adPhases []workload.QueryPhase
	var osTopo, adTopo *numa.Topology
	modes := []workload.Mode{workload.ModeOS, workload.ModeAdaptive}
	err := sweep(ctx, obs, modes, modePhase, func(_ int, mode workload.Mode) error {
		r, err := newRig(c, mode, nil)
		if err != nil {
			return err
		}
		phases := workload.MixedPhases(r, c.Clients)
		if mode == workload.ModeOS {
			osPhases, osTopo = phases, r.Machine.Topology()
		} else {
			adPhases, adTopo = phases, r.Machine.Topology()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	tb := res.AddTable("queries",
		colI("query"), colF("OS cpu(J)", 3), colF("OS ht(J)", 3),
		colF("adp cpu(J)", 3), colF("adp ht(J)", 3),
		colF("cpu save%", 2), colF("ht save%", 2), colF("total save%", 2))
	var cpuSav, htSav []float64
	var osTotal, adTotal float64
	for i := range osPhases {
		osE := model.Estimate(osTopo, osPhases[i].Window)
		adE := model.Estimate(adTopo, adPhases[i].Window)
		cpuSave := metrics.Savings(osE.CPUJoules, adE.CPUJoules)
		htSave := metrics.Savings(osE.HTJoules, adE.HTJoules)
		totalSave := metrics.Savings(osE.Total(), adE.Total())
		tb.AddRow(osPhases[i].QueryNumber, osE.CPUJoules, osE.HTJoules,
			adE.CPUJoules, adE.HTJoules, cpuSave, htSave, totalSave)
		osTotal += osE.Total()
		adTotal += adE.Total()
		if cpuSave > 0 {
			cpuSav = append(cpuSav, cpuSave)
		}
		if htSave > 0 {
			htSav = append(htSav, htSave)
		}
	}
	res.AddMetric("geo_cpu_savings_pct", metrics.GeoMean(cpuSav), "%")
	res.AddMetric("geo_ht_savings_pct", metrics.GeoMean(htSav), "%")
	res.AddMetric("total_savings_pct", metrics.Savings(osTotal, adTotal), "%")
	return res, nil
}
