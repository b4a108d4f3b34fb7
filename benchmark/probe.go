package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// probe.go is the host probe. The sandbox's host is shared: for minutes
// at a time the same binary runs the same simulation 25-45 % slower, with
// no steal time and no change of CPU time against wall time to show for
// it, because neighbours thrash the cache and memory the machine shares.
// No statistic over the repetitions of one run removes a shift that
// outlasts the run. So each untraced run also times, between its
// repetitions, a fixed piece of work that is slowed the way the
// simulations are — a chain of dependent loads through a table far larger
// than the private caches and the TLB reach — and reports its host times
// at the reference host speed: raw seconds x probeRefNS / probe ns.
//
// The probe is frozen: a change to it changes what wall_s and setup_s
// mean, so it is a benchmark change of its own, never part of a change
// that claims a gain.

const (
	// probeBits sizes the table: 1<<26 four-byte entries are 256 MiB.
	probeBits = 26
	// probeSmokeBits is the table of the package test's operating point.
	probeSmokeBits = 20
	// probeLoads is the length of one slice's chain, about 0.1 s.
	probeLoads = 1 << 19
	// probeEvery is how much cold set-up time may pass between samples;
	// the repetitions, which last longer, get a sample after each.
	probeEvery = 0.15
	// probeRefNS is the reference host speed: nanoseconds per load on the
	// quiet reference box. Host times are reported as if the probe ran at
	// exactly this speed.
	probeRefNS = 200.0
)

// hostProbe walks one cycle through all entries of its table. The table
// lives outside the Go heap: inside it, it would double the heap the
// collector paces itself by and so change the simulations' own cost.
type hostProbe struct {
	mem   []byte
	table []uint32
	pos   uint32
	// slices are the nanoseconds per load of every slice taken so far.
	slices []float64
}

func newHostProbe(bits uint) (*hostProbe, error) {
	n := 1 << bits
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: mmap of %d MiB: %w", 4*n>>20, err)
	}
	p := &hostProbe{mem: mem, table: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)}
	// i -> a*i + c mod 2^bits with c odd and a = 1 mod 4 is one cycle
	// through all 2^bits entries (Hull-Dobell), and nothing a prefetcher
	// can follow.
	const a, c = 0x9E3779B1, 0x7F4A7C15
	mask := uint32(n - 1)
	for i := range p.table {
		p.table[i] = (uint32(i)*a + c) & mask
	}
	return p, nil
}

// measure times two slices, each one chain of dependent loads, and records
// their nanoseconds per load. A nil probe takes no samples.
func (p *hostProbe) measure() {
	if p == nil {
		return
	}
	for range 2 {
		pos := p.pos
		t0 := time.Now()
		for i := 0; i < probeLoads; i++ {
			pos = p.table[pos]
		}
		p.slices = append(p.slices, float64(time.Since(t0).Nanoseconds())/probeLoads)
		p.pos = pos
	}
}

// take returns the slices recorded since the last take.
func (p *hostProbe) take() []float64 {
	s := p.slices
	p.slices = nil
	return s
}

// residentMB is what the table adds to the process's resident set: every
// page of it has been written.
func (p *hostProbe) residentMB() float64 { return float64(len(p.mem)) / (1 << 20) }

func (p *hostProbe) close() {
	syscall.Munmap(p.mem)
	p.mem, p.table = nil, nil
}

// atReference converts raw host seconds, measured while the probe ran at
// probeNS per load, into seconds at the reference host speed.
func atReference(raw stat, probeNS float64) stat {
	k := probeRefNS / probeNS
	return stat{Value: raw.Value * k, Q1: raw.Q1 * k, Q3: raw.Q3 * k, N: raw.N, Raw: raw.Value}
}

// lowerQuartileStat reports the first quartile of vs. The repetitions of
// a workload are identical deterministic jobs, so whatever makes one
// slower than another is the host, and it only ever adds time: the lower
// quartile of five repetitions (the mean of the two fastest) still reads
// right when a slow patch of the host covers three of them, where the
// median does not.
func lowerQuartileStat(vs []float64) stat {
	q1, _, q3 := quartiles(vs)
	return stat{Value: q1, Q1: q1, Q3: q3, N: len(vs)}
}
