// Package metrics implements the paper's evaluation arithmetic: the
// energy-consumption estimates of Section V-C.3 (Average CPU Power per
// socket plus per-bit HyperTransport transfer energy, after Wang & Lee,
// HotPower'15) and small statistics helpers for the experiment reports.
package metrics

import (
	"math"

	"elasticore/internal/numa"
)

// EnergyModel holds the coefficients of the paper's estimate.
type EnergyModel struct {
	// CPUWattsPerSocket is the processor's Average CPU Power (ACP). The
	// Opteron 8387's ACP is 75 W.
	CPUWattsPerSocket float64
	// HTJoulesPerBit is the interconnect transfer energy per bit.
	HTJoulesPerBit float64
	// IdleFraction is the fraction of ACP drawn by an idle socket (power
	// gating is imperfect); busy time is charged the full ACP.
	IdleFraction float64
}

// DefaultEnergyModel returns the paper-calibrated coefficients.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		CPUWattsPerSocket: 75,
		HTJoulesPerBit:    5e-12,
		IdleFraction:      0.3,
	}
}

// Energy is an estimate split like the paper's Figure 20 bars.
type Energy struct {
	CPUJoules float64
	HTJoules  float64
}

// Total returns CPU + HT joules.
func (e Energy) Total() float64 { return e.CPUJoules + e.HTJoules }

// Estimate computes the energy of a counter window: CPU energy from
// per-socket busy/idle time at ACP, HT energy from transferred bytes.
func (m EnergyModel) Estimate(topo *numa.Topology, w numa.Counters) Energy {
	var e Energy
	perCoreWatts := m.CPUWattsPerSocket / float64(topo.CoresPerNode)
	for _, c := range w.Cores {
		busy := topo.CyclesToSeconds(c.BusyCycles)
		idle := topo.CyclesToSeconds(c.IdleCycles)
		e.CPUJoules += busy*perCoreWatts + idle*perCoreWatts*m.IdleFraction
	}
	e.HTJoules = float64(w.TotalHTBytes()) * 8 * m.HTJoulesPerBit
	return e
}

// Savings returns the relative saving of b versus a in percent
// ((a-b)/a*100); zero when a is zero.
func Savings(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a * 100
}

// GeoMean returns the geometric mean of positive values (the paper
// aggregates per-query savings geometrically). Non-positive inputs are
// skipped.
func GeoMean(vals []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Max returns the maximum (0 for empty input).
func Max(vals []float64) float64 {
	var m float64
	for i, v := range vals {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}
