package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// parse.go turns fault specs into Plans. The grammar is semicolon-
// separated clauses, whitespace-separated tokens, times with a unit
// suffix (s, ms, us):
//
//	seed 42
//	crash m1 @2s for 1.5s
//	stall m2 c0-3 @1s for 1s
//	slow m0 c* x8 @1s for 2s
//	link m2 +0.5ms drop 0.3 @3s for 2s
//
// Omitting "for" keeps the fault active for the rest of the run. A
// core spec is c<i>, c<i>-<j> (inclusive) or c* (every core).

// Parse builds a Plan from a spec string. The empty string is the empty
// plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for ci, clause := range strings.Split(spec, ";") {
		fields := strings.Fields(clause)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "seed" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("clause %d: seed wants one value", ci)
			}
			seed, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("clause %d: bad seed %q", ci, fields[1])
			}
			p.Seed = seed
			continue
		}
		f, err := parseClause(fields)
		if err != nil {
			return nil, fmt.Errorf("clause %d: %w", ci, err)
		}
		if err := check(f); err != nil {
			return nil, fmt.Errorf("clause %d: %w", ci, err)
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

// parseClause parses one non-seed clause into a Fault.
func parseClause(fields []string) (Fault, error) {
	var f Fault
	switch fields[0] {
	case "crash":
		f.Kind = Crash
	case "stall":
		f.Kind = Stall
	case "slow":
		f.Kind = Slow
	case "link":
		f.Kind = Link
	default:
		return f, fmt.Errorf("unknown fault %q", fields[0])
	}
	f.Core, f.CoreHi = -1, -1
	i := 1
	next := func() (string, bool) {
		if i >= len(fields) {
			return "", false
		}
		tok := fields[i]
		i++
		return tok, true
	}

	tok, ok := next()
	if !ok || len(tok) < 2 || tok[0] != 'm' {
		return f, fmt.Errorf("%s: expected machine (m<i>), got %q", f.Kind, tok)
	}
	m, err := strconv.Atoi(tok[1:])
	if err != nil || m < 0 {
		return f, fmt.Errorf("%s: bad machine %q", f.Kind, tok)
	}
	f.Machine = m

	switch f.Kind {
	case Stall, Slow:
		tok, ok := next()
		if !ok {
			return f, fmt.Errorf("%s: expected core spec", f.Kind)
		}
		if f.Core, f.CoreHi, err = parseCores(tok); err != nil {
			return f, err
		}
		if f.Kind == Slow {
			tok, ok := next()
			if !ok || len(tok) < 2 || tok[0] != 'x' {
				return f, fmt.Errorf("slow: expected factor (x<n>), got %q", tok)
			}
			if f.Factor, err = strconv.ParseUint(tok[1:], 10, 64); err != nil {
				return f, fmt.Errorf("slow: bad factor %q", tok)
			}
		}
	case Link:
		for i < len(fields) && fields[i][0] != '@' {
			tok, _ := next()
			switch {
			case tok[0] == '+':
				if f.Delay, err = parseDur(tok[1:]); err != nil {
					return f, fmt.Errorf("link: bad delay %q: %w", tok, err)
				}
			case tok == "drop":
				tok, ok := next()
				if !ok {
					return f, fmt.Errorf("link: drop wants a probability")
				}
				if f.Drop, err = strconv.ParseFloat(tok, 64); err != nil {
					return f, fmt.Errorf("link: bad drop %q", tok)
				}
			default:
				return f, fmt.Errorf("link: unexpected token %q", tok)
			}
		}
	}

	tok, ok = next()
	if !ok || len(tok) < 2 || tok[0] != '@' {
		return f, fmt.Errorf("%s: expected start (@<time>), got %q", f.Kind, tok)
	}
	if f.At, err = parseDur(tok[1:]); err != nil {
		return f, fmt.Errorf("%s: bad start %q: %w", f.Kind, tok, err)
	}
	if tok, ok = next(); ok {
		if tok != "for" {
			return f, fmt.Errorf("%s: unexpected token %q", f.Kind, tok)
		}
		tok, ok = next()
		if !ok {
			return f, fmt.Errorf("%s: for wants a duration", f.Kind)
		}
		if f.For, err = parseDur(tok); err != nil {
			return f, fmt.Errorf("%s: bad duration %q: %w", f.Kind, tok, err)
		}
		if f.For <= 0 {
			return f, fmt.Errorf("%s: for wants a positive duration", f.Kind)
		}
	}
	if i != len(fields) {
		return f, fmt.Errorf("%s: trailing tokens %v", f.Kind, fields[i:])
	}
	return f, nil
}

// parseCores parses c<i>, c<i>-<j> or c*.
func parseCores(tok string) (lo, hi int, err error) {
	if len(tok) < 2 || tok[0] != 'c' {
		return 0, 0, fmt.Errorf("bad core spec %q (want c<i>, c<i>-<j> or c*)", tok)
	}
	body := tok[1:]
	if body == "*" {
		return -1, -1, nil
	}
	if a, b, found := strings.Cut(body, "-"); found {
		lo, err1 := strconv.Atoi(a)
		hi, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil || lo < 0 || hi < lo {
			return 0, 0, fmt.Errorf("bad core range %q", tok)
		}
		return lo, hi, nil
	}
	c, err := strconv.Atoi(body)
	if err != nil || c < 0 {
		return 0, 0, fmt.Errorf("bad core %q", tok)
	}
	return c, c, nil
}

// parseDur parses a duration with an s/ms/us suffix into seconds; a
// bare number is seconds.
func parseDur(tok string) (float64, error) {
	scale := 1.0
	switch {
	case strings.HasSuffix(tok, "us"):
		tok, scale = tok[:len(tok)-2], 1e-6
	case strings.HasSuffix(tok, "ms"):
		tok, scale = tok[:len(tok)-2], 1e-3
	case strings.HasSuffix(tok, "s"):
		tok = tok[:len(tok)-1]
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad time %q", tok)
	}
	v *= scale
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("time %q out of range", tok)
	}
	return v, nil
}
