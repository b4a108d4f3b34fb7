package db

import "fmt"

// vplan.go makes operator composition data: a PlanSpec is an ordered
// list of OpSpecs naming tables, columns, variables and predicates, and
// Compile validates the whole composition against a Store's catalog —
// tables and columns exist, predicate types match column kinds,
// variables are defined before use with the right roles, and partition
// shapes stay aligned where operators index fragments pairwise — then
// lowers each step onto the stage builders of operators.go, returning an
// executable *Plan or an error. Compile never panics, whatever the spec:
// a spec it accepts is guaranteed not to trip the builders' internal
// alignment panics at run time. That guarantee is what lets workloads be
// generated (the heterogeneous query mixes of the htap experiments) and
// fuzzed (FuzzPlanBuild) instead of hand-written.

// OpKind identifies one vectorized operator in a PlanSpec.
type OpKind int

const (
	// OpScan filters a full base column into a candidate list
	// (ThetaSelect; PredAll gives ScanAll).
	OpScan OpKind = iota
	// OpRefine filters an existing candidate list against another column
	// (SubSelect).
	OpRefine
	// OpProject gathers base-column values at candidate positions
	// (Projection).
	OpProject
	// OpMap2 applies a binary float function over two aligned value
	// variables (MapF2).
	OpMap2
	// OpSum folds a float value variable into a scalar (SumF).
	OpSum
	// OpCount stores a variable's row count in a scalar (Count).
	OpCount
	// OpBuild hashes a key variable (with optional payloads) into a named
	// set (BuildMap).
	OpBuild
	// OpProbeSemi keeps candidates whose column value hits the set
	// (ProbeSemi).
	OpProbeSemi
	// OpProbeFetch additionally gathers the build side's payloads
	// (ProbeFetch).
	OpProbeFetch
	// OpProbeAnti keeps candidates whose column value misses the set
	// (ProbeAnti).
	OpProbeAnti
	// OpGroupSum accumulates per-partition key→sum partials (GroupSum).
	OpGroupSum
	// OpGroupMerge merges partials into sorted key/sum variables
	// (GroupMerge).
	OpGroupMerge
	// OpGroupFilter drops merged groups failing a predicate (GroupFilter).
	OpGroupFilter
	// OpTopN keeps the n largest groups (TopN).
	OpTopN
	// OpLookup binary-searches a sorted key column and projects one value
	// into a scalar (PointLookup).
	OpLookup
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "scan"
	case OpRefine:
		return "refine"
	case OpProject:
		return "project"
	case OpMap2:
		return "map2"
	case OpSum:
		return "sum"
	case OpCount:
		return "count"
	case OpBuild:
		return "build"
	case OpProbeSemi:
		return "probe-semi"
	case OpProbeFetch:
		return "probe-fetch"
	case OpProbeAnti:
		return "probe-anti"
	case OpGroupSum:
		return "group-sum"
	case OpGroupMerge:
		return "group-merge"
	case OpGroupFilter:
		return "group-filter"
	case OpTopN:
		return "topn"
	case OpLookup:
		return "lookup"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// OpSpec is one step of a declarative plan. Which fields matter depends
// on Kind; Compile rejects incomplete or ill-typed steps.
type OpSpec struct {
	Kind OpKind
	// Table and Col name the base column of scans, refinements,
	// projections, probes and lookups; Col2 names the lookup's value
	// column.
	Table, Col, Col2 string
	// In and In2 name consumed variables (candidate lists, value vectors,
	// sets or partials, per Kind); Out and Out2 name the products
	// (variables, scalars, sets or partials, per Kind).
	In, In2, Out, Out2 string
	// Pred is the filter of OpScan and OpRefine.
	Pred Pred
	// Map is OpMap2's row function.
	Map func(x, y float64) float64
	// Keep is OpGroupFilter's HAVING predicate over group sums.
	Keep func(sum float64) bool
	// N is OpTopN's group budget.
	N int
	// Key is OpLookup's probe key.
	Key int64
}

// PlanSpec is a declarative operator pipeline.
type PlanSpec struct {
	Name string
	Ops  []OpSpec
}

// specVarRole classifies what a defined name holds during validation.
type specVarRole int

const (
	roleCand specVarRole = iota // candidate list (row OIDs)
	roleVals                    // value fragments of some Kind
)

// specVar is the compile-time state of one defined variable.
type specVar struct {
	role specVarRole
	kind Kind // value kind when role == roleVals
	// table is the base table a candidate list's OIDs index into:
	// refinements, projections and probes must stay on that table.
	table string
	// shape groups variables with identical partition structure (and,
	// per partition, identical row counts): operators that index two
	// variables' fragments pairwise require equal shapes.
	shape int
}

// Compile validates the spec against the store's catalog and lowers it
// onto the engine's stage builders. It returns an error — never panics —
// on unknown tables or columns, type mismatches, use of undefined
// variables and misaligned compositions.
func (s PlanSpec) Compile(st *Store) (*Plan, error) {
	vars := map[string]specVar{}
	sets := map[string]bool{}
	partials := map[string]bool{}
	nextShape := 0
	freshShape := func() int { nextShape++; return nextShape }

	fail := func(i int, op OpSpec, format string, args ...any) (*Plan, error) {
		return nil, fmt.Errorf("db: plan %q op %d (%s): %s",
			s.Name, i, op.Kind, fmt.Sprintf(format, args...))
	}
	column := func(table, col string) (*BAT, error) {
		if !st.HasTable(table) {
			return nil, fmt.Errorf("unknown table %q", table)
		}
		t := st.Table(table)
		if !t.HasCol(col) {
			return nil, fmt.Errorf("table %q has no column %q", table, col)
		}
		return t.Col(col), nil
	}
	predMatches := func(p Pred, c *BAT) error {
		switch {
		case p.fits(c):
			return nil
		case c.Kind == KindI64:
			return fmt.Errorf("integer column %q needs an integer predicate", c.Name)
		}
		return fmt.Errorf("float column %q needs a float predicate", c.Name)
	}
	candidate := func(name, table string) (specVar, error) {
		v, ok := vars[name]
		if !ok {
			return specVar{}, fmt.Errorf("undefined variable %q", name)
		}
		if v.role != roleCand {
			return specVar{}, fmt.Errorf("variable %q is not a candidate list", name)
		}
		if v.table != table {
			return specVar{}, fmt.Errorf("candidate list %q indexes table %q, not %q", name, v.table, table)
		}
		return v, nil
	}
	values := func(name string, want Kind) (specVar, error) {
		v, ok := vars[name]
		if !ok {
			return specVar{}, fmt.Errorf("undefined variable %q", name)
		}
		if v.role != roleVals {
			return specVar{}, fmt.Errorf("variable %q is not a value vector", name)
		}
		if v.kind != want {
			return specVar{}, fmt.Errorf("variable %q has the wrong value kind", name)
		}
		return v, nil
	}

	stages := make([]StageFn, 0, len(s.Ops))
	for i, op := range s.Ops {
		switch op.Kind {
		case OpScan:
			c, err := column(op.Table, op.Col)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if err := predMatches(op.Pred, c); err != nil {
				return fail(i, op, "%v", err)
			}
			if op.Out == "" {
				return fail(i, op, "missing output variable")
			}
			vars[op.Out] = specVar{role: roleCand, table: op.Table, shape: freshShape()}
			stages = append(stages, ThetaSelect(op.Table, op.Col, op.Out, op.Pred))

		case OpRefine:
			if _, err := candidate(op.In, op.Table); err != nil {
				return fail(i, op, "%v", err)
			}
			c, err := column(op.Table, op.Col)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if err := predMatches(op.Pred, c); err != nil {
				return fail(i, op, "%v", err)
			}
			if op.Out == "" {
				return fail(i, op, "missing output variable")
			}
			// Refinement drops rows per fragment: the partition count
			// survives but row alignment with the input's shape does not,
			// so the output starts a fresh shape group.
			vars[op.Out] = specVar{role: roleCand, table: op.Table, shape: freshShape()}
			stages = append(stages, SubSelect(op.In, op.Table, op.Col, op.Out, op.Pred))

		case OpProject:
			in, err := candidate(op.In, op.Table)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			c, err := column(op.Table, op.Col)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if op.Out == "" {
				return fail(i, op, "missing output variable")
			}
			vars[op.Out] = specVar{role: roleVals, kind: c.Kind, shape: in.shape}
			stages = append(stages, Projection(op.In, op.Table, op.Col, op.Out))

		case OpMap2:
			a, err := values(op.In, KindF64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			b, err := values(op.In2, KindF64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if a.shape != b.shape {
				return fail(i, op, "inputs %q and %q are not aligned", op.In, op.In2)
			}
			if op.Map == nil {
				return fail(i, op, "missing map function")
			}
			if op.Out == "" {
				return fail(i, op, "missing output variable")
			}
			vars[op.Out] = specVar{role: roleVals, kind: KindF64, shape: a.shape}
			stages = append(stages, MapF2(op.In, op.In2, op.Out, op.Map))

		case OpSum:
			if _, err := values(op.In, KindF64); err != nil {
				return fail(i, op, "%v", err)
			}
			if op.Out == "" {
				return fail(i, op, "missing output scalar")
			}
			stages = append(stages, SumF(op.In, op.Out))

		case OpCount:
			if _, ok := vars[op.In]; !ok {
				return fail(i, op, "undefined variable %q", op.In)
			}
			if op.Out == "" {
				return fail(i, op, "missing output scalar")
			}
			stages = append(stages, Count(op.In, op.Out))

		case OpBuild:
			keys, err := values(op.In, KindI64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if op.In2 != "" {
				vals, ok := vars[op.In2]
				if !ok || vals.role != roleVals {
					return fail(i, op, "payload %q is not a value vector", op.In2)
				}
				if vals.shape != keys.shape {
					return fail(i, op, "keys %q and payloads %q are not aligned", op.In, op.In2)
				}
			}
			if op.Out == "" {
				return fail(i, op, "missing output set")
			}
			sets[op.Out] = true
			stages = append(stages, BuildMap(op.In, op.In2, op.Out))

		case OpProbeSemi, OpProbeFetch, OpProbeAnti:
			if _, err := candidate(op.In, op.Table); err != nil {
				return fail(i, op, "%v", err)
			}
			c, err := column(op.Table, op.Col)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if c.Kind != KindI64 {
				return fail(i, op, "probe column %q must be integer", op.Col)
			}
			if !sets[op.In2] {
				return fail(i, op, "undefined set %q", op.In2)
			}
			if op.Out == "" {
				return fail(i, op, "missing output variable")
			}
			shape := freshShape()
			vars[op.Out] = specVar{role: roleCand, table: op.Table, shape: shape}
			switch op.Kind {
			case OpProbeSemi:
				stages = append(stages, ProbeSemi(op.In, op.Table, op.Col, op.In2, op.Out))
			case OpProbeAnti:
				stages = append(stages, ProbeAnti(op.In, op.Table, op.Col, op.In2, op.Out))
			default:
				if op.Out2 == "" {
					return fail(i, op, "missing payload output variable")
				}
				vars[op.Out2] = specVar{role: roleVals, kind: KindI64, shape: shape}
				stages = append(stages, ProbeFetch(op.In, op.Table, op.Col, op.In2, op.Out, op.Out2))
			}

		case OpGroupSum:
			keys, err := values(op.In, KindI64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if op.In2 != "" {
				vals, ok := vars[op.In2]
				if !ok || vals.role != roleVals {
					return fail(i, op, "values %q is not a value vector", op.In2)
				}
				if vals.shape != keys.shape {
					return fail(i, op, "keys %q and values %q are not aligned", op.In, op.In2)
				}
			}
			if op.Out == "" {
				return fail(i, op, "missing output partials")
			}
			partials[op.Out] = true
			stages = append(stages, GroupSum(op.In, op.In2, op.Out))

		case OpGroupMerge:
			if !partials[op.In] {
				return fail(i, op, "undefined partials %q", op.In)
			}
			if op.Out == "" || op.Out2 == "" {
				return fail(i, op, "missing output variables")
			}
			if op.Out == op.Out2 {
				return fail(i, op, "key and sum outputs must differ")
			}
			shape := freshShape()
			vars[op.Out] = specVar{role: roleVals, kind: KindI64, shape: shape}
			vars[op.Out2] = specVar{role: roleVals, kind: KindF64, shape: shape}
			stages = append(stages, GroupMerge(op.In, op.Out, op.Out2))

		case OpGroupFilter:
			keys, err := values(op.In, KindI64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			sums, err := values(op.In2, KindF64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if keys.shape != sums.shape {
				return fail(i, op, "keys %q and sums %q are not aligned", op.In, op.In2)
			}
			if op.Keep == nil {
				return fail(i, op, "missing keep predicate")
			}
			shape := freshShape()
			vars[op.In] = specVar{role: roleVals, kind: KindI64, shape: shape}
			vars[op.In2] = specVar{role: roleVals, kind: KindF64, shape: shape}
			stages = append(stages, GroupFilter(op.In, op.In2, op.Keep))

		case OpTopN:
			keys, err := values(op.In, KindI64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			sums, err := values(op.In2, KindF64)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if keys.shape != sums.shape {
				return fail(i, op, "keys %q and sums %q are not aligned", op.In, op.In2)
			}
			if op.N < 0 {
				return fail(i, op, "negative group budget %d", op.N)
			}
			shape := freshShape()
			vars[op.In] = specVar{role: roleVals, kind: KindI64, shape: shape}
			vars[op.In2] = specVar{role: roleVals, kind: KindF64, shape: shape}
			stages = append(stages, TopN(op.In, op.In2, op.N))

		case OpLookup:
			kc, err := column(op.Table, op.Col)
			if err != nil {
				return fail(i, op, "%v", err)
			}
			if kc.Kind != KindI64 {
				return fail(i, op, "lookup key column %q must be integer", op.Col)
			}
			if _, err := column(op.Table, op.Col2); err != nil {
				return fail(i, op, "%v", err)
			}
			if op.Out == "" {
				return fail(i, op, "missing output scalar")
			}
			stages = append(stages, PointLookup(op.Table, op.Col, op.Col2, op.Key, op.Out))

		default:
			return fail(i, op, "unknown operator kind")
		}
	}
	return &Plan{Name: s.Name, Stages: stages}, nil
}

// PlanBuilder is the fluent face of PlanSpec: chain operator calls, then
// Compile against a store. Errors surface at Compile, keeping the
// chaining free of per-call error plumbing.
type PlanBuilder struct{ spec PlanSpec }

// NewPlanSpec starts a named declarative plan.
func NewPlanSpec(name string) *PlanBuilder {
	return &PlanBuilder{spec: PlanSpec{Name: name}}
}

func (b *PlanBuilder) add(op OpSpec) *PlanBuilder {
	b.spec.Ops = append(b.spec.Ops, op)
	return b
}

// Scan filters a full base column into candidate list out.
func (b *PlanBuilder) Scan(table, col, out string, p Pred) *PlanBuilder {
	return b.add(OpSpec{Kind: OpScan, Table: table, Col: col, Out: out, Pred: p})
}

// ScanAll produces a candidate list covering the whole table.
func (b *PlanBuilder) ScanAll(table, col, out string) *PlanBuilder {
	return b.Scan(table, col, out, PredAll())
}

// Refine filters candidate list in against another column into out.
func (b *PlanBuilder) Refine(in, table, col, out string, p Pred) *PlanBuilder {
	return b.add(OpSpec{Kind: OpRefine, In: in, Table: table, Col: col, Out: out, Pred: p})
}

// Project gathers column values at the candidates of in into out.
func (b *PlanBuilder) Project(in, table, col, out string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpProject, In: in, Table: table, Col: col, Out: out})
}

// Map2 applies f over the aligned float variables a and b2 into out.
func (b *PlanBuilder) Map2(a, b2, out string, f func(x, y float64) float64) *PlanBuilder {
	return b.add(OpSpec{Kind: OpMap2, In: a, In2: b2, Out: out, Map: f})
}

// Sum folds float variable in into the named scalar.
func (b *PlanBuilder) Sum(in, scalar string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpSum, In: in, Out: scalar})
}

// Count stores in's row count in the named scalar.
func (b *PlanBuilder) Count(in, scalar string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpCount, In: in, Out: scalar})
}

// Build hashes key variable keys (payloads from vals, or 1 when vals is
// empty) into the named set.
func (b *PlanBuilder) Build(keys, vals, set string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpBuild, In: keys, In2: vals, Out: set})
}

// ProbeSemi keeps candidates of in whose column value hits the set.
func (b *PlanBuilder) ProbeSemi(in, table, col, set, out string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpProbeSemi, In: in, Table: table, Col: col, In2: set, Out: out})
}

// ProbeFetch keeps hitting candidates and gathers payloads into outVals.
func (b *PlanBuilder) ProbeFetch(in, table, col, set, out, outVals string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpProbeFetch, In: in, Table: table, Col: col, In2: set, Out: out, Out2: outVals})
}

// ProbeAnti keeps candidates of in whose column value misses the set.
func (b *PlanBuilder) ProbeAnti(in, table, col, set, out string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpProbeAnti, In: in, Table: table, Col: col, In2: set, Out: out})
}

// GroupSum accumulates per-partition key→sum(vals) partials (count mode
// when vals is empty).
func (b *PlanBuilder) GroupSum(keys, vals, partials string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpGroupSum, In: keys, In2: vals, Out: partials})
}

// GroupMerge merges partials into sorted outKeys/outSums variables.
func (b *PlanBuilder) GroupMerge(partials, outKeys, outSums string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpGroupMerge, In: partials, Out: outKeys, Out2: outSums})
}

// GroupFilter drops merged groups whose sum fails keep.
func (b *PlanBuilder) GroupFilter(keys, sums string, keep func(sum float64) bool) *PlanBuilder {
	return b.add(OpSpec{Kind: OpGroupFilter, In: keys, In2: sums, Keep: keep})
}

// TopN keeps the n largest groups of the keys/sums pair.
func (b *PlanBuilder) TopN(keys, sums string, n int) *PlanBuilder {
	return b.add(OpSpec{Kind: OpTopN, In: keys, In2: sums, N: n})
}

// Lookup binary-searches the sorted key column for key and projects
// valCol at the hit into the named scalar.
func (b *PlanBuilder) Lookup(table, keyCol, valCol string, key int64, outScalar string) *PlanBuilder {
	return b.add(OpSpec{Kind: OpLookup, Table: table, Col: keyCol, Col2: valCol, Key: key, Out: outScalar})
}

// Spec returns the accumulated declarative plan.
func (b *PlanBuilder) Spec() PlanSpec { return b.spec }

// Compile validates and lowers the accumulated plan (see
// PlanSpec.Compile).
func (b *PlanBuilder) Compile(st *Store) (*Plan, error) { return b.spec.Compile(st) }
