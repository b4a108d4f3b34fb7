package petrinet

// analysis.go provides the formal analyses the PrT literature the paper
// cites applies to such models (He '96; Yu et al., COMPSAC '02):
// bounded reachability exploration over a finite token-value domain,
// k-safety checking, and deadlock detection. The elastic net's safety
// properties (tokens conserved, allocation within [1, ntotal], no
// deadlocking marking) are machine-checked in the tests on top of these.

import (
	"fmt"
	"sort"
	"strings"
)

// MarkingKey is a canonical string encoding of a marking, usable as a map
// key during state-space exploration.
type MarkingKey string

// markingKey encodes the current marking deterministically.
func (n *Net) markingKey() MarkingKey {
	var b strings.Builder
	for _, p := range n.places {
		b.WriteString(p.Name)
		b.WriteByte('=')
		toks := n.marking[p.idx]
		parts := make([]string, len(toks))
		for i, tok := range toks {
			parts[i] = n.TokenString(tok)
		}
		sort.Strings(parts)
		b.WriteString(strings.Join(parts, ","))
		b.WriteByte(';')
	}
	return MarkingKey(b.String())
}

// snapshotMarking copies the full marking.
func (n *Net) snapshotMarking() [][]Token {
	out := make([][]Token, len(n.marking))
	for i, toks := range n.marking {
		out[i] = append([]Token(nil), toks...)
	}
	return out
}

// restoreMarking replaces the marking with a copy of a snapshot.
func (n *Net) restoreMarking(m [][]Token) {
	for i, toks := range m {
		n.marking[i] = append(n.marking[i][:0], toks...)
	}
}

// Reachability summarizes a bounded state-space exploration.
type Reachability struct {
	// States is the number of distinct markings reached.
	States int
	// MaxTokensPerPlace is the bound observed on any single place
	// (k-safety: the net is k-safe iff this is <= k).
	MaxTokensPerPlace int
	// Deadlocks lists markings with no enabled transition.
	Deadlocks []MarkingKey
	// Truncated reports whether the exploration hit the state limit.
	Truncated bool
}

// Explore performs a breadth-first reachability analysis from the current
// marking, firing every enabled transition at every state, up to maxStates
// distinct markings. The net's marking is restored afterwards.
//
// PrT nets over unbounded value domains have infinite state spaces in
// general; Explore is exact for nets whose guards and expressions keep
// token values within a finite domain (the elastic net's nalloc in
// [1, ntotal] and any finite set of injected u readings).
func (n *Net) Explore(maxStates int) Reachability {
	saved := n.snapshotMarking()
	defer n.restoreMarking(saved)

	res := Reachability{}
	seen := map[MarkingKey]bool{}
	queue := [][][]Token{n.snapshotMarking()}

	for len(queue) > 0 {
		if res.States >= maxStates {
			res.Truncated = true
			break
		}
		cur := queue[0]
		queue = queue[1:]
		n.restoreMarking(cur)
		key := n.markingKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		res.States++
		for _, toks := range cur {
			if len(toks) > res.MaxTokensPerPlace {
				res.MaxTokensPerPlace = len(toks)
			}
		}
		fired := 0
		for _, t := range n.transitions {
			n.restoreMarking(cur)
			if _, ok := n.Enabled(t); !ok {
				continue
			}
			if _, err := n.Fire(t); err != nil {
				continue
			}
			fired++
			queue = append(queue, n.snapshotMarking())
		}
		if fired == 0 {
			res.Deadlocks = append(res.Deadlocks, key)
		}
	}
	return res
}

// String summarizes the analysis.
func (r Reachability) String() string {
	return fmt.Sprintf("reachable states: %d, max tokens/place: %d, deadlocks: %d, truncated: %v",
		r.States, r.MaxTokensPerPlace, len(r.Deadlocks), r.Truncated)
}
