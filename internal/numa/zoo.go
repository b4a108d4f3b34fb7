package numa

import (
	"fmt"
	"strconv"
	"strings"
)

// zoo.go is the topology zoo: a family of machine shapes beyond the
// paper's single testbed, so the elastic mechanism's central claim —
// counter-driven allocation keeps the system NUMA-friendly — can be
// exercised where it is known to break down: across interconnect
// geometries with different hop-distance structure. Every constructor
// returns a fully populated, Validate-clean Topology; ParseTopology
// additionally accepts a textual spec so shapes can be defined at the
// command line.

// linkDistances computes the all-pairs hop matrix of an undirected link
// graph by breadth-first search. It panics if the graph is disconnected
// or a link endpoint is out of range — zoo constructors are static data,
// so a bad link set is a programming error, not an input error.
func linkDistances(n int, links [][2]int) [][]int {
	adj := make([][]int, n)
	for _, l := range links {
		if l[0] < 0 || l[0] >= n || l[1] < 0 || l[1] >= n || l[0] == l[1] {
			panic(fmt.Sprintf("numa: bad link %v in %d-node graph", l, n))
		}
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	dist := make([][]int, n)
	for src := 0; src < n; src++ {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if d[w] < 0 {
					d[w] = d[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for i, h := range d {
			if h < 0 {
				panic(fmt.Sprintf("numa: node %d unreachable from %d", i, src))
			}
		}
		dist[src] = d
	}
	return dist
}

// zooBase returns the shared per-node parameters of the zoo: the
// Opteron testbed's clock, cache and memory-bank geometry, so shapes
// differ only in node count, core count and interconnect structure.
// The aggregate interconnect bandwidth scales with the link count at
// the testbed's 10.4 GB/s per HyperTransport link.
func zooBase(nodes, coresPerNode, nLinks int) *Topology {
	t := Opteron8387()
	t.NodeCount = nodes
	t.CoresPerNode = coresPerNode
	t.HTBandwidth = 10.4e9 * float64(nLinks)
	t.Distance = nil
	return t
}

// TwoSocket returns a dual-socket machine: two 8-core nodes joined by a
// single interconnect link — the common commodity server shape, and the
// degenerate case where every remote access costs exactly one hop.
func TwoSocket() *Topology {
	t := zooBase(2, 8, 1)
	t.Distance = [][]int{{0, 1}, {1, 0}}
	return t
}

// FourSocketRing returns four quad-core sockets on a ring interconnect:
// adjacent sockets one hop apart, opposite sockets two. Unlike the
// testbed's fully linked square, a ring has no one-hop path between
// diagonal neighbours, so placement that ignores hop distance pays for
// it on every diagonal transfer.
func FourSocketRing() *Topology {
	t := zooBase(4, 4, 4)
	t.Distance = linkDistances(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	return t
}

// eightTwistedLinks is the twisted-ladder interconnect of the real
// 8-socket Opteron machines (e.g. the Sun Fire X4600 class): two rails
// of four sockets, rungs between them, and the wrap-around links crossed
// — the "twist" that cuts the network diameter from three hops to two.
// Each socket uses exactly its three coherent HyperTransport links.
var eightTwistedLinks = [][2]int{
	{0, 1}, {2, 3}, {4, 5}, {6, 7}, // rungs
	{0, 2}, {2, 4}, {4, 6}, // rail A
	{1, 3}, {3, 5}, {5, 7}, // rail B
	{6, 1}, {7, 0}, // the twist: crossed wrap-around
}

// EightSocketTwisted returns the eight-socket twisted-ladder Opteron:
// eight quad-core nodes, 3-regular interconnect, diameter two. This is
// the machine class the paper's testbed topology (a four-socket square)
// scales up to in real deployments.
func EightSocketTwisted() *Topology {
	t := zooBase(8, 4, len(eightTwistedLinks))
	t.Distance = linkDistances(8, eightTwistedLinks)
	return t
}

// EPYCLike returns a chiplet-style machine: two packages of four dies
// each, every die a NUMA node with four cores and its own memory
// controller. Intra-package distances are asymmetric in the chiplet
// sense — dies adjacent on the package substrate are one hop, dies
// across its diagonal two — and cross-package traffic pays two hops to
// the die's socket-to-socket partner, three to everything else.
func EPYCLike() *Topology {
	const nodes = 8
	t := zooBase(nodes, 4, 12)
	d := make([][]int, nodes)
	for i := range d {
		d[i] = make([]int, nodes)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case i/4 == j/4: // same package: on-substrate fabric
				if (i-j+4)%4 == 2 {
					d[i][j] = 2 // diagonal die pair
				} else {
					d[i][j] = 1
				}
			case i%4 == j%4: // cross-package: direct partner link
				d[i][j] = 2
			default:
				d[i][j] = 3
			}
		}
	}
	t.Distance = d
	return t
}

// zooEntries maps zoo names to constructors, in presentation order.
// Lookup is case-insensitive over the canonical names and their aliases.
var zooEntries = []struct {
	name    string
	aliases []string
	build   func() *Topology
}{
	{"opteron", []string{"opteron8387"}, Opteron8387},
	{"2socket", []string{"twosocket"}, TwoSocket},
	{"4ring", []string{"foursocketring"}, FourSocketRing},
	{"8twisted", []string{"eightsockettwisted"}, EightSocketTwisted},
	{"epyc", []string{"epyclike"}, EPYCLike},
}

// ZooNames returns the canonical zoo names in presentation order.
func ZooNames() []string {
	out := make([]string, len(zooEntries))
	for i, e := range zooEntries {
		out[i] = e.name
	}
	return out
}

// maxParsedCores bounds ParseTopology shapes to what sched.CPUSet (a
// 64-bit core mask) can represent.
const maxParsedCores = 63

// ParseTopology resolves a machine shape from a string: either a zoo
// name (see ZooNames; case-insensitive, "opteron8387"-style aliases
// accepted) or a spec of the form
//
//	nodes x cores [@ h01 h02 ... hops of the upper triangle]
//
// e.g. "2x8" (two 8-core nodes, uniform one-hop distances) or
// "4x4 @ 1 2 1 1 2 1" (explicit hop counts for the node pairs
// (0,1) (0,2) (0,3) (1,2) (1,3) (2,3), row-major upper triangle; the
// matrix is symmetric and zero-diagonal by construction). Parsed shapes
// inherit the testbed's clock, cache and memory-bank parameters and are
// limited to 63 cores, the cpuset mask width. The returned topology is
// Validate-clean.
func ParseTopology(spec string) (*Topology, error) {
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" {
		return nil, fmt.Errorf("numa: empty topology spec (want a zoo name %v or \"nodes x cores [@ hops...]\")", ZooNames())
	}
	lower := strings.ToLower(trimmed)
	for _, e := range zooEntries {
		if lower == e.name {
			return e.build(), nil
		}
		for _, a := range e.aliases {
			if lower == a {
				return e.build(), nil
			}
		}
	}

	shape, hops, hasHops := strings.Cut(trimmed, "@")
	dims := strings.Split(strings.ReplaceAll(shape, " ", ""), "x")
	if len(dims) != 2 {
		return nil, fmt.Errorf("numa: topology spec %q: shape must be \"<nodes>x<cores>\"", spec)
	}
	nodes, err := strconv.Atoi(dims[0])
	if err != nil || nodes < 1 {
		return nil, fmt.Errorf("numa: topology spec %q: bad node count %q", spec, dims[0])
	}
	cores, err := strconv.Atoi(dims[1])
	if err != nil || cores < 1 {
		return nil, fmt.Errorf("numa: topology spec %q: bad cores-per-node %q", spec, dims[1])
	}
	if nodes*cores > maxParsedCores {
		return nil, fmt.Errorf("numa: topology spec %q: %d cores exceed the %d-core cpuset limit", spec, nodes*cores, maxParsedCores)
	}

	dist := make([][]int, nodes)
	for i := range dist {
		dist[i] = make([]int, nodes)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = 1
			}
		}
	}
	if hasHops {
		fields := strings.Fields(hops)
		want := nodes * (nodes - 1) / 2
		if len(fields) != want {
			return nil, fmt.Errorf("numa: topology spec %q: %d hop entries, want %d (upper triangle of %d nodes)", spec, len(fields), want, nodes)
		}
		k := 0
		for i := 0; i < nodes; i++ {
			for j := i + 1; j < nodes; j++ {
				h, err := strconv.Atoi(fields[k])
				if err != nil || h < 1 {
					return nil, fmt.Errorf("numa: topology spec %q: bad hop count %q for nodes (%d,%d)", spec, fields[k], i, j)
				}
				dist[i][j], dist[j][i] = h, h
				k++
			}
		}
	}

	// Per-node parameters from the testbed; link count estimated as one
	// link per one-hop pair so the aggregate bandwidth tracks the shape.
	oneHop := 0
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if dist[i][j] == 1 {
				oneHop++
			}
		}
	}
	if oneHop == 0 {
		oneHop = 1 // single-node machines have no links but still need bandwidth
	}
	t := zooBase(nodes, cores, oneHop)
	t.Distance = dist
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("numa: topology spec %q: %w", spec, err)
	}
	return t, nil
}
