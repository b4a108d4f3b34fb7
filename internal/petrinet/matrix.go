package petrinet

import (
	"fmt"
	"strings"
)

// matrix.go derives the Pre, Post and incidence matrices of a net, the
// representation the paper uses throughout Section III (Figures 8-11):
// A^T = Post - Pre orients the flow relation based on pre-conditions and
// post-conditions.

// Matrix is a places x transitions integer matrix (1 = arc present).
type Matrix struct {
	PlaceNames      []string
	TransitionNames []string
	Cells           [][]int // [place][transition]
}

// SymbolicMatrix carries the arc inscriptions instead of presence counts,
// matching the paper's rendering where cells hold "u" or "na".
type SymbolicMatrix struct {
	PlaceNames      []string
	TransitionNames []string
	Cells           [][]string
}

// Pre returns the pre-condition matrix: Pre[p][t] = 1 iff an arc <p, t>
// exists (place feeds transition).
func (n *Net) Pre() Matrix {
	m := n.emptyMatrix()
	for _, t := range n.transitions {
		for _, arc := range t.In {
			m.Cells[arc.Place.idx][t.idx] = 1
		}
	}
	return m
}

// Post returns the post-condition matrix: Post[p][t] = 1 iff an arc <t, p>
// exists (transition feeds place).
func (n *Net) Post() Matrix {
	m := n.emptyMatrix()
	for _, t := range n.transitions {
		for _, arc := range t.Out {
			m.Cells[arc.Place.idx][t.idx] = 1
		}
	}
	return m
}

// Incidence returns A^T = Post - Pre.
func (n *Net) Incidence() Matrix {
	pre, post := n.Pre(), n.Post()
	m := n.emptyMatrix()
	for p := range m.Cells {
		for t := range m.Cells[p] {
			m.Cells[p][t] = post.Cells[p][t] - pre.Cells[p][t]
		}
	}
	return m
}

// SymbolicPre returns the pre-condition matrix with arc inscriptions.
func (n *Net) SymbolicPre() SymbolicMatrix {
	m := n.emptySymbolic()
	for _, t := range n.transitions {
		for _, arc := range t.In {
			m.Cells[arc.Place.idx][t.idx] = n.varNames(arc.Vars)
		}
	}
	return m
}

// SymbolicPost returns the post-condition matrix with arc inscriptions.
func (n *Net) SymbolicPost() SymbolicMatrix {
	m := n.emptySymbolic()
	for _, t := range n.transitions {
		for _, arc := range t.Out {
			m.Cells[arc.Place.idx][t.idx] = n.varNames(arc.Vars)
		}
	}
	return m
}

func (n *Net) emptyMatrix() Matrix {
	m := Matrix{
		PlaceNames:      make([]string, len(n.places)),
		TransitionNames: make([]string, len(n.transitions)),
		Cells:           make([][]int, len(n.places)),
	}
	for i, p := range n.places {
		m.PlaceNames[i] = p.Name
		m.Cells[i] = make([]int, len(n.transitions))
	}
	for i, t := range n.transitions {
		m.TransitionNames[i] = t.Name
	}
	return m
}

func (n *Net) emptySymbolic() SymbolicMatrix {
	m := SymbolicMatrix{
		PlaceNames:      make([]string, len(n.places)),
		TransitionNames: make([]string, len(n.transitions)),
		Cells:           make([][]string, len(n.places)),
	}
	for i, p := range n.places {
		m.PlaceNames[i] = p.Name
		m.Cells[i] = make([]string, len(n.transitions))
	}
	for i, t := range n.transitions {
		m.TransitionNames[i] = t.Name
	}
	return m
}

// String renders the matrix as an aligned table.
func (m Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, t := range m.TransitionNames {
		fmt.Fprintf(&b, "%6s", t)
	}
	b.WriteByte('\n')
	for p, row := range m.Cells {
		fmt.Fprintf(&b, "%-10s", m.PlaceNames[p])
		for _, v := range row {
			fmt.Fprintf(&b, "%6d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the symbolic matrix as an aligned table.
func (m SymbolicMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, t := range m.TransitionNames {
		fmt.Fprintf(&b, "%10s", t)
	}
	b.WriteByte('\n')
	for p, row := range m.Cells {
		fmt.Fprintf(&b, "%-10s", m.PlaceNames[p])
		for _, v := range row {
			if v == "" {
				v = "."
			}
			fmt.Fprintf(&b, "%10s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
