package elastic

import (
	"math"

	"elasticore/internal/numa"
	"elasticore/internal/sched"
)

// Sample is the monitoring window handed to a Strategy each control
// period: counter deltas since the previous period plus the set of cores
// currently allocated to the database cgroup.
type Sample struct {
	Window    numa.Counters
	Allocated sched.CPUSet
}

// Strategy turns a monitoring window into the scalar reading u the PrT net
// classifies, together with its thresholds. The paper demonstrates two:
// CPU load (Section III) and the HT/IMC traffic ratio (Section V-B),
// showing the abstract model fits different metrics.
type Strategy interface {
	// Reading returns u as an integer in the net's token domain. It must
	// be a pure function of its Sample: a Mechanism at its quiet fixed
	// point replays the reading of an idle window rather than asking
	// again for the identical window that follows.
	Reading(s Sample) int
	// Thresholds returns (thmin, thmax) in the same domain.
	Thresholds() (min, max int)
}

// CPULoadStrategy reads the average CPU load of the allocated cores, in
// percent. Thresholds follow the literature's rules of thumb the paper
// adopts: thmin = 10, thmax = 70.
type CPULoadStrategy struct {
	// ThMin, ThMax override the defaults when non-zero.
	ThMin, ThMax int
}

// Reading implements Strategy: the arithmetic CPU-load average of the
// allocated cores (of all cores when none is allocated).
func (CPULoadStrategy) Reading(s Sample) int {
	var buf [64]numa.CoreID // a CPUSet holds at most 64 cores
	return int(math.Round(s.Window.CPULoad(s.Allocated.AppendCores(buf[:0]))))
}

// Thresholds implements Strategy.
func (c CPULoadStrategy) Thresholds() (int, int) {
	min, max := c.ThMin, c.ThMax
	if min == 0 {
		min = 10
	}
	if max == 0 {
		max = 70
	}
	return min, max
}

// HTIMCStrategy reads the ratio of interconnect traffic to
// memory-controller traffic, scaled by 1000 to fit the integer token
// domain (0.1 -> 100). The paper sets thmin = 0.1 and thmax = 0.4
// empirically. A *high* ratio means the system is NUMA-unfriendly — data
// crosses sockets instead of being served locally — so it is treated as
// overload (more local cores needed near the data); a low ratio with low
// utility releases cores.
type HTIMCStrategy struct {
	// ThMinMilli, ThMaxMilli override the defaults (100, 400) when
	// non-zero.
	ThMinMilli, ThMaxMilli int
}

// Reading implements Strategy: 1000 * HTbytes / IMCbytes over the window.
func (HTIMCStrategy) Reading(s Sample) int {
	return int(math.Round(1000 * s.Window.HTIMCRatio()))
}

// Thresholds implements Strategy.
func (h HTIMCStrategy) Thresholds() (int, int) {
	min, max := h.ThMinMilli, h.ThMaxMilli
	if min == 0 {
		min = 100
	}
	if max == 0 {
		max = 400
	}
	return min, max
}
