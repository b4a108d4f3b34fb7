package db

import (
	"errors"
	"fmt"
	"strings"
)

// vplan.go makes a query plan a value: a PlanSpec is an ordered list of
// OpSpecs naming tables, columns, variables, predicates and parameters —
// no code — so a plan can be compared, printed, hashed, generated (the
// heterogeneous query mixes of the htap experiments) and fuzzed
// (FuzzPlanBuild). One table indexed by OpKind says what each kind is
// called, how a step of that kind is checked against a Store's catalog and
// how it is lowered onto the engine (the lowering functions of
// operators.go). Compile is check, then Lower: the check proves tables and
// columns exist, predicate forms match column kinds, variables are defined
// before use with the right roles, and partition shapes stay aligned where
// operators index fragments pairwise, and never panics, whatever the spec;
// a spec it accepts cannot trip the lowering's alignment panics at run
// time. Lower alone is for a spec a test has already proven against the
// catalog (the 22 TPC-H queries), which then pays for no check per plan.

// OpKind identifies one vectorized operator in a PlanSpec.
type OpKind uint8

// The operator kinds; the constructor of the same name (Scan, Refine, …)
// documents what each reads and produces.
const (
	OpScan        OpKind = iota // filter a full base column into a candidate list
	OpRefine                    // filter a candidate list against another column
	OpProject                   // gather base-column values at candidate positions
	OpMap2                      // a binary float function over two aligned value variables
	OpSum                       // fold a float value variable into a scalar
	OpCount                     // a variable's row count into a scalar
	OpBuild                     // hash a key variable (with optional payloads) into a set
	OpProbeSemi                 // keep candidates whose column value hits the set
	OpProbeFetch                // … and gather the build side's payloads
	OpProbeAnti                 // keep candidates whose column value misses the set
	OpGroupSum                  // per-partition key→sum partials
	OpGroupMerge                // merge partials into sorted key/sum variables
	OpGroupFilter               // drop merged groups whose sum is not above a threshold
	OpTopN                      // keep the n largest groups
	OpLookup                    // binary-search a sorted key column, project one value into a scalar
)

// opTable is what the engine knows about each operator kind: the name
// plans print, the catalog check of one step (it binds the step's products
// in the checker), the step's lowering onto the engine, and the bindings
// the step reads and writes, from which Lower derives every intermediate's
// lifetime. OpKind.String, PlanSpec.check and PlanSpec.Lower read nothing
// else.
var opTable = [...]struct {
	name          string
	check         func(c *checker, op *OpSpec) error
	lower         func(q *Query, op *OpSpec) []Task
	reads, writes [2]ref
}{
	OpScan:        {"scan", checkScan, lowerScan, noRefs, outVar},
	OpRefine:      {"refine", checkRefine, lowerRefine, inVar, outVar},
	OpProject:     {"project", checkProject, lowerProject, inVar, outVar},
	OpMap2:        {"map2", checkMap2, lowerMap2, inVars, outVar},
	OpSum:         {"sum", checkSum, lowerSum, inVar, noRefs},
	OpCount:       {"count", checkCount, lowerCount, inVar, noRefs},
	OpBuild:       {"build", checkKeyed, single("hash.build", buildWork), inVars, [2]ref{{fieldOut, spaceSet}}},
	OpProbeSemi:   {"probe-semi", checkProbe, lowerProbe, probed, outVar},
	OpProbeFetch:  {"probe-fetch", checkProbe, lowerProbe, probed, outVars},
	OpProbeAnti:   {"probe-anti", checkProbe, lowerProbe, probed, outVar},
	OpGroupSum:    {"group-sum", checkKeyed, lowerGroupSum, inVars, [2]ref{{fieldOut, spacePartials}}},
	OpGroupMerge:  {"group-merge", checkGroupMerge, single("mat.pack", mergeWork), [2]ref{{fieldIn, spacePartials}}, outVars},
	OpGroupFilter: {"group-filter", checkMerged, single("group.filter", filterWork), inVars, inVars},
	OpTopN:        {"topn", checkTopN, single("algebra.topn", topNWork), inVars, inVars},
	OpLookup:      {"lookup", checkLookup, single("algebra.find", lookupWork), noRefs, noRefs},
}

// space is where a binding lives in a query: its variables, its hash-join
// sets or its grouped-aggregation partials. Scalars hold no host buffer and
// have no space.
type space uint8

const (
	spaceVar space = iota + 1
	spaceSet
	spacePartials
)

// field selects one of an OpSpec's four name fields.
type field uint8

const (
	fieldIn field = iota
	fieldIn2
	fieldOut
	fieldOut2
)

// ref is one binding a step reads or writes: the field that names it and
// its space. The zero ref is none; so is a ref whose field is empty (an
// optional input left out).
type ref struct {
	field field
	space space
}

// The read and write sets the op table spells.
var (
	noRefs  = [2]ref{}
	inVar   = [2]ref{{fieldIn, spaceVar}}
	inVars  = [2]ref{{fieldIn, spaceVar}, {fieldIn2, spaceVar}}
	outVar  = [2]ref{{fieldOut, spaceVar}}
	outVars = [2]ref{{fieldOut, spaceVar}, {fieldOut2, spaceVar}}
	probed  = [2]ref{{fieldIn, spaceVar}, {fieldIn2, spaceSet}}
)

// binding names one value a query holds: a name in a space.
type binding struct {
	space space
	name  string
}

// binding returns the binding r names in op, false for none.
func (op *OpSpec) binding(r ref) (binding, bool) {
	var name string
	switch r.field {
	case fieldIn:
		name = op.In
	case fieldIn2:
		name = op.In2
	case fieldOut:
		name = op.Out
	case fieldOut2:
		name = op.Out2
	}
	return binding{r.space, name}, r.space != 0 && name != ""
}

// refs returns a step's four binding refs in death-mask bit order: the
// two it reads, then the two it writes.
func (op *OpSpec) refs() [4]ref {
	io := &opTable[op.Kind]
	return [4]ref{io.reads[0], io.reads[1], io.writes[0], io.writes[1]}
}

// A step's death mask: bit k (k < 4) says the value its k-th ref (refs)
// names dies when the step's stage drains — for a read ref, the value it
// reads, no later step reading it; for a write ref, the value the name held
// before, overwritten unread. Bit k+2 of a write ref (k = 2, 3) says the
// value the step writes there is a result: no later step reads it, and the
// query holds it until Release. Bit k+underShift of a read ref (k = 0, 1)
// says the value it reads is a view whose candidate list dies with it: no
// later step reads the list or a view over it. viewBit on a projection says
// its output is a view (lowerProject): every step that reads it reads it
// through strips.
const (
	resultBits = 0b11 << 4
	underShift = 6
	viewBit    = 1 << 8
)

// readsStrips reports whether steps of kind k read their value inputs
// through strips (vec) or not at all: a projection that only such steps
// read is a view. A hash build reads its keys on the model's own thread
// (buildWork), so what it reads stays gathered beside the model.
func (k OpKind) readsStrips() bool {
	return k == OpMap2 || k == OpSum || k == OpGroupSum || k == OpCount
}

// lifetimes fills dies, one death mask per step of ops, with where each
// value the steps write dies, or that it is a result, and which
// projections are views. A candidate list under a view dies at the last
// read of it or of a view over it, whichever comes later.
func lifetimes(ops []OpSpec, dies []uint16) {
	// val is a value a name holds: the step that wrote it (-1 for a read
	// of a name nothing wrote), the last step that read it so far (-1 for
	// none) and the step that wrote the name again (-1 while it holds the
	// value), each with the ref it went through. A projection's output
	// records the value it projects through (over, -1 for none) and whether
	// every step that read it so far reads strips; a candidate list, the
	// last step that reads a view over it (under, -1 for none).
	type val struct {
		b                                    binding
		wrote, last, killed, over, under     int
		writeRef, readRef, killRef, underRef uint8
		strips                               bool
	}
	var buf [48]val
	vals := buf[:0]
	for i := range ops {
		op, in := &ops[i], -1
		for k, r := range op.refs() {
			b, ok := op.binding(r)
			if !ok {
				continue
			}
			j := len(vals) - 1 // newest first: a step mostly reads a recent product
			for j >= 0 && (vals[j].b != b || vals[j].killed >= 0) {
				j--
			}
			if k < 2 {
				if j < 0 {
					vals = append(vals, val{b: b, wrote: -1, killed: -1, over: -1, under: -1})
					j = len(vals) - 1
				}
				v := &vals[j]
				v.last, v.readRef = i, uint8(k)
				v.strips = v.strips && op.Kind.readsStrips()
				if k == 0 {
					in = j
				}
				continue
			}
			if j >= 0 {
				vals[j].killed, vals[j].killRef = i, uint8(k)
			}
			w := val{b: b, wrote: i, last: -1, killed: -1, over: -1, under: -1, writeRef: uint8(k)}
			if op.Kind == OpProject {
				w.over, w.strips = in, true
			}
			vals = append(vals, w)
		}
	}
	for _, v := range vals {
		if v.over < 0 || v.last < 0 || !v.strips {
			continue
		}
		dies[v.wrote] |= viewBit
		if c := &vals[v.over]; v.last > c.under || v.last == c.under && v.readRef > c.underRef {
			c.under, c.underRef = v.last, v.readRef
		}
	}
	for _, v := range vals {
		switch {
		case v.last < 0 && v.killed >= 0:
			dies[v.killed] |= 1 << v.killRef
		case v.last < 0:
			dies[v.wrote] |= 1 << (v.writeRef + 2)
		case v.under > v.last:
			dies[v.under] |= 1 << (underShift + v.underRef)
		default:
			dies[v.last] |= 1 << v.readRef
		}
	}
}

// known reports whether k indexes the op table.
func (k OpKind) known() bool { return int(k) < len(opTable) }

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if !k.known() {
		return fmt.Sprintf("opkind(%d)", int(k))
	}
	return opTable[k].name
}

// MapFn names the row function of an OpMap2: the closed set the query
// plans compute with, so a plan that maps stays data.
type MapFn uint8

const (
	// MapMul is x * y.
	MapMul MapFn = iota + 1
	// MapMulComplement is x * (1 - y): a price net of its discount.
	MapMulComplement
)

// mapFns is what each MapFn value is called and computes.
var mapFns = [...]struct {
	name string
	fn   func(x, y float64) float64
}{
	MapMul:           {"x*y", func(x, y float64) float64 { return x * y }},
	MapMulComplement: {"x*(1-y)", func(x, y float64) float64 { return x * (1 - y) }},
}

// fn returns the function m names, nil for a value that names none.
func (m MapFn) fn() func(x, y float64) float64 {
	if int(m) >= len(mapFns) {
		return nil
	}
	return mapFns[m].fn
}

// String implements fmt.Stringer.
func (m MapFn) String() string {
	if m.fn() == nil {
		return fmt.Sprintf("mapfn(%d)", int(m))
	}
	return mapFns[m].name
}

// OpSpec is one step of a declarative plan. Which fields matter depends
// on Kind; Compile rejects incomplete or ill-typed steps. The constructors
// below (Scan, Refine, …) build each kind from the fields it reads.
type OpSpec struct {
	Kind OpKind
	// Map is OpMap2's row function.
	Map MapFn
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
	// Keep is OpGroupFilter's HAVING threshold: groups with sum > Keep stay.
	Keep float64
	// N is OpTopN's group budget.
	N int
	// Key is OpLookup's probe key.
	Key int64
}

// Scan filters a full base column into candidate list out.
func Scan(table, col, out string, p Pred) OpSpec {
	return OpSpec{Kind: OpScan, Table: table, Col: col, Out: out, Pred: p}
}

// ScanAll produces a candidate list covering the whole table.
func ScanAll(table, col, out string) OpSpec { return Scan(table, col, out, PredAll()) }

// Refine filters candidate list in against another column into out.
func Refine(in, table, col, out string, p Pred) OpSpec {
	return OpSpec{Kind: OpRefine, In: in, Table: table, Col: col, Out: out, Pred: p}
}

// Project gathers column values at the candidates of in into out.
func Project(in, table, col, out string) OpSpec {
	return OpSpec{Kind: OpProject, In: in, Table: table, Col: col, Out: out}
}

// Map2 applies f over the aligned float variables a and b into out.
func Map2(a, b, out string, f MapFn) OpSpec {
	return OpSpec{Kind: OpMap2, In: a, In2: b, Out: out, Map: f}
}

// Sum folds float variable in into the named scalar.
func Sum(in, scalar string) OpSpec { return OpSpec{Kind: OpSum, In: in, Out: scalar} }

// Count stores in's row count in the named scalar.
func Count(in, scalar string) OpSpec { return OpSpec{Kind: OpCount, In: in, Out: scalar} }

// Build hashes key variable keys (payloads from vals, or 1 when vals is
// empty) into the named set.
func Build(keys, vals, set string) OpSpec {
	return OpSpec{Kind: OpBuild, In: keys, In2: vals, Out: set}
}

// ProbeSemi keeps candidates of in whose column value hits the set.
func ProbeSemi(in, table, col, set, out string) OpSpec {
	return OpSpec{Kind: OpProbeSemi, In: in, Table: table, Col: col, In2: set, Out: out}
}

// ProbeFetch keeps hitting candidates and gathers payloads into outVals.
func ProbeFetch(in, table, col, set, out, outVals string) OpSpec {
	return OpSpec{Kind: OpProbeFetch, In: in, Table: table, Col: col, In2: set, Out: out, Out2: outVals}
}

// ProbeAnti keeps candidates of in whose column value misses the set.
func ProbeAnti(in, table, col, set, out string) OpSpec {
	return OpSpec{Kind: OpProbeAnti, In: in, Table: table, Col: col, In2: set, Out: out}
}

// GroupSum accumulates per-partition key→sum(vals) partials (count mode
// when vals is empty).
func GroupSum(keys, vals, partials string) OpSpec {
	return OpSpec{Kind: OpGroupSum, In: keys, In2: vals, Out: partials}
}

// GroupMerge merges partials into sorted outKeys/outSums variables.
func GroupMerge(partials, outKeys, outSums string) OpSpec {
	return OpSpec{Kind: OpGroupMerge, In: partials, Out: outKeys, Out2: outSums}
}

// GroupFilter keeps the merged groups whose sum exceeds above.
func GroupFilter(keys, sums string, above float64) OpSpec {
	return OpSpec{Kind: OpGroupFilter, In: keys, In2: sums, Keep: above}
}

// TopN keeps the n largest groups of the keys/sums pair.
func TopN(keys, sums string, n int) OpSpec {
	return OpSpec{Kind: OpTopN, In: keys, In2: sums, N: n}
}

// Lookup binary-searches the sorted key column for key and projects
// valCol at the hit into the named scalar.
func Lookup(table, keyCol, valCol string, key int64, outScalar string) OpSpec {
	return OpSpec{Kind: OpLookup, Table: table, Col: keyCol, Col2: valCol, Key: key, Out: outScalar}
}

// String renders the step on one line: its kind's name, what it reads, its
// parameter, what it produces (nothing, for a step that rewrites its inputs
// in place).
func (op *OpSpec) String() string {
	var b strings.Builder
	b.WriteString(op.Kind.String())
	for _, in := range [...]string{op.In, op.In2} {
		if in != "" {
			b.WriteString(" " + in)
		}
	}
	if op.Table != "" {
		fmt.Fprintf(&b, " %s.%s", op.Table, op.Col)
	}
	switch op.Kind {
	case OpScan, OpRefine:
		fmt.Fprintf(&b, " [%v]", op.Pred)
	case OpMap2:
		fmt.Fprintf(&b, " %v", op.Map)
	case OpGroupFilter:
		fmt.Fprintf(&b, " [sum > %g]", op.Keep)
	case OpTopN:
		fmt.Fprintf(&b, " n=%d", op.N)
	case OpLookup:
		fmt.Fprintf(&b, " key=%d %s", op.Key, op.Col2)
	}
	if op.Out != "" {
		b.WriteString(" -> " + op.Out)
	}
	if op.Out2 != "" {
		b.WriteString(" " + op.Out2)
	}
	return b.String()
}

// PlanSpec is a declarative operator pipeline.
type PlanSpec struct {
	Name string
	Ops  []OpSpec
}

// String renders the plan: its name, then one indented line per step.
func (s PlanSpec) String() string {
	var b strings.Builder
	b.WriteString(s.Name + "\n")
	for i := range s.Ops {
		b.WriteString("  " + s.Ops[i].String() + "\n")
	}
	return b.String()
}

// Compile validates the spec against the store's catalog and lowers it
// onto the engine. It returns an error — never panics — on unknown tables
// or columns, type mismatches, use of undefined variables and misaligned
// compositions.
func (s PlanSpec) Compile(st *Store) (*Plan, error) {
	if err := s.check(st); err != nil {
		return nil, err
	}
	return s.Lower(), nil
}

// Lower returns the executable plan of a spec without checking it: the
// plan holds s.Ops, and the engine hands each step to its kind's lowering
// function when a query reaches it. Lower also works out, once per plan,
// where each intermediate dies and which projections are views
// (lifetimes): the engine returns an intermediate's host storage to the
// pool when the stage of its last reader drains. The plan
// reads s.Ops in place, so the spec must not be modified afterwards. A step
// the catalog check would reject panics when its stage is planned (a kind
// outside the table panics here): lower unchecked only what a test
// compiles.
func (s PlanSpec) Lower() *Plan {
	for i := range s.Ops {
		if !s.Ops[i].Kind.known() {
			panic(fmt.Sprintf("db: plan %q op %d: unknown operator kind %d", s.Name, i, int(s.Ops[i].Kind)))
		}
	}
	p := &Plan{Name: s.Name, Ops: s.Ops}
	p.dies = p.short[:]
	if len(s.Ops) > len(p.short) {
		p.dies = make([]uint16, len(s.Ops))
	}
	p.dies = p.dies[:len(s.Ops)]
	lifetimes(s.Ops, p.dies)
	return p
}

// check proves the spec against the store's catalog, step by step in
// order, each step's check binding what later steps may consume.
func (s PlanSpec) check(st *Store) error {
	c := &checker{st: st, vars: map[string]specVar{}, sets: map[string]bool{}, partials: map[string]bool{}}
	for i := range s.Ops {
		op, check := &s.Ops[i], checkUnknown
		if op.Kind.known() {
			check = opTable[op.Kind].check
		}
		if err := check(c, op); err != nil {
			return fmt.Errorf("db: plan %q op %d (%s): %v", s.Name, i, op.Kind, err)
		}
	}
	return nil
}

// checkUnknown is the check of a kind outside the op table.
func checkUnknown(*checker, *OpSpec) error { return errors.New("unknown operator kind") }

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

// checker is the state of one catalog check: the names the steps so far
// have defined, by what they hold.
type checker struct {
	st       *Store
	vars     map[string]specVar
	sets     map[string]bool
	partials map[string]bool
	shapes   int
}

// freshShape starts a new alignment group.
func (c *checker) freshShape() int { c.shapes++; return c.shapes }

// bind defines an output variable, whose name must not be empty.
func (c *checker) bind(name string, v specVar) error {
	if name == "" {
		return errors.New("missing output variable")
	}
	c.vars[name] = v
	return nil
}

func (c *checker) column(table, col string) (*BAT, error) {
	if !c.st.HasTable(table) {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	t := c.st.Table(table)
	if !t.HasCol(col) {
		return nil, fmt.Errorf("table %q has no column %q", table, col)
	}
	return t.Col(col), nil
}

func (c *checker) candidate(name, table string) (specVar, error) {
	v, ok := c.vars[name]
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

func (c *checker) values(name string, want Kind) (specVar, error) {
	v, ok := c.vars[name]
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

// checkKeyed checks OpBuild and OpGroupSum: integer keys In and, when In2
// is named, a value vector aligned with them; the product is a set, or the
// partials of a grouped sum.
func checkKeyed(c *checker, op *OpSpec) error {
	what, product, bound := "payloads", "set", c.sets
	if op.Kind == OpGroupSum {
		what, product, bound = "values", "partials", c.partials
	}
	keys, err := c.values(op.In, KindI64)
	if err != nil {
		return err
	}
	if op.In2 != "" {
		vals, ok := c.vars[op.In2]
		if !ok || vals.role != roleVals {
			return fmt.Errorf("%s %q is not a value vector", what, op.In2)
		}
		if vals.shape != keys.shape {
			return fmt.Errorf("keys %q and %s %q are not aligned", op.In, what, op.In2)
		}
	}
	if op.Out == "" {
		return fmt.Errorf("missing output %s", product)
	}
	bound[op.Out] = true
	return nil
}

// checkScan also checks the part of OpRefine that is a scan: the column
// exists, the predicate fits it, the output is a fresh candidate list.
// (Refinement drops rows per fragment: the partition count survives but row
// alignment with the input's shape does not, so the output starts a fresh
// shape group there too.)
func checkScan(c *checker, op *OpSpec) error {
	col, err := c.column(op.Table, op.Col)
	if err != nil {
		return err
	}
	if !op.Pred.fits(col) {
		if col.Kind == KindI64 {
			return fmt.Errorf("integer column %q needs an integer predicate", col.Name)
		}
		return fmt.Errorf("float column %q needs a float predicate", col.Name)
	}
	return c.bind(op.Out, specVar{role: roleCand, table: op.Table, shape: c.freshShape()})
}

func checkRefine(c *checker, op *OpSpec) error {
	if _, err := c.candidate(op.In, op.Table); err != nil {
		return err
	}
	return checkScan(c, op)
}

func checkProject(c *checker, op *OpSpec) error {
	in, err := c.candidate(op.In, op.Table)
	if err != nil {
		return err
	}
	col, err := c.column(op.Table, op.Col)
	if err != nil {
		return err
	}
	return c.bind(op.Out, specVar{role: roleVals, kind: col.Kind, shape: in.shape})
}

func checkMap2(c *checker, op *OpSpec) error {
	a, err := c.values(op.In, KindF64)
	if err != nil {
		return err
	}
	b, err := c.values(op.In2, KindF64)
	if err != nil {
		return err
	}
	if a.shape != b.shape {
		return fmt.Errorf("inputs %q and %q are not aligned", op.In, op.In2)
	}
	if op.Map.fn() == nil {
		return errors.New("missing map function")
	}
	return c.bind(op.Out, specVar{role: roleVals, kind: KindF64, shape: a.shape})
}

// needScalar is the output check of the steps that produce a scalar, which
// no later step can consume: it binds nothing.
func needScalar(op *OpSpec) error {
	if op.Out == "" {
		return errors.New("missing output scalar")
	}
	return nil
}

func checkSum(c *checker, op *OpSpec) error {
	if _, err := c.values(op.In, KindF64); err != nil {
		return err
	}
	return needScalar(op)
}

func checkCount(c *checker, op *OpSpec) error {
	if _, ok := c.vars[op.In]; !ok {
		return fmt.Errorf("undefined variable %q", op.In)
	}
	return needScalar(op)
}

func checkProbe(c *checker, op *OpSpec) error {
	if _, err := c.candidate(op.In, op.Table); err != nil {
		return err
	}
	col, err := c.column(op.Table, op.Col)
	if err != nil {
		return err
	}
	if col.Kind != KindI64 {
		return fmt.Errorf("probe column %q must be integer", op.Col)
	}
	if !c.sets[op.In2] {
		return fmt.Errorf("undefined set %q", op.In2)
	}
	shape := c.freshShape()
	if err := c.bind(op.Out, specVar{role: roleCand, table: op.Table, shape: shape}); err != nil {
		return err
	}
	if op.Kind != OpProbeFetch {
		return nil
	}
	// The payloads are bound second: under the candidates' name they would
	// silently replace them.
	if op.Out2 == op.Out {
		return errors.New("candidate and payload outputs must differ")
	}
	return c.bind(op.Out2, specVar{role: roleVals, kind: KindI64, shape: shape})
}

// bindGroups (re)defines a merged key/sum pair as one fresh shape group.
func (c *checker) bindGroups(keys, sums string) {
	shape := c.freshShape()
	c.vars[keys] = specVar{role: roleVals, kind: KindI64, shape: shape}
	c.vars[sums] = specVar{role: roleVals, kind: KindF64, shape: shape}
}

func checkGroupMerge(c *checker, op *OpSpec) error {
	if !c.partials[op.In] {
		return fmt.Errorf("undefined partials %q", op.In)
	}
	if op.Out == "" || op.Out2 == "" {
		return errors.New("missing output variables")
	}
	if op.Out == op.Out2 {
		return errors.New("key and sum outputs must differ")
	}
	c.bindGroups(op.Out, op.Out2)
	return nil
}

// checkMerged checks the steps that rewrite a merged key/sum pair in place
// (OpGroupFilter; OpTopN adds its budget): integer keys In, float sums In2,
// aligned. Every threshold is a valid OpGroupFilter parameter.
func checkMerged(c *checker, op *OpSpec) error {
	keys, err := c.values(op.In, KindI64)
	if err != nil {
		return err
	}
	sums, err := c.values(op.In2, KindF64)
	if err != nil {
		return err
	}
	if keys.shape != sums.shape {
		return fmt.Errorf("keys %q and sums %q are not aligned", op.In, op.In2)
	}
	c.bindGroups(op.In, op.In2)
	return nil
}

func checkTopN(c *checker, op *OpSpec) error {
	if op.N < 0 {
		return fmt.Errorf("negative group budget %d", op.N)
	}
	return checkMerged(c, op)
}

func checkLookup(c *checker, op *OpSpec) error {
	kc, err := c.column(op.Table, op.Col)
	if err != nil {
		return err
	}
	if kc.Kind != KindI64 {
		return fmt.Errorf("lookup key column %q must be integer", op.Col)
	}
	if _, err := c.column(op.Table, op.Col2); err != nil {
		return err
	}
	return needScalar(op)
}

// PlanBuilder chains steps onto a named plan and compiles it: the form
// plans were written in before the OpSpec constructors, kept with the
// methods its remaining caller chains (benchmark/, which may not change in
// the PR that made plans literals). New code writes PlanSpec{Name, Ops}.
type PlanBuilder struct{ spec PlanSpec }

// NewPlanSpec starts a named declarative plan.
func NewPlanSpec(name string) *PlanBuilder {
	return &PlanBuilder{spec: PlanSpec{Name: name}}
}

func (b *PlanBuilder) add(op OpSpec) *PlanBuilder {
	b.spec.Ops = append(b.spec.Ops, op)
	return b
}

// ScanAll appends ScanAll(table, col, out).
func (b *PlanBuilder) ScanAll(table, col, out string) *PlanBuilder {
	return b.add(ScanAll(table, col, out))
}

// Project appends Project(in, table, col, out).
func (b *PlanBuilder) Project(in, table, col, out string) *PlanBuilder {
	return b.add(Project(in, table, col, out))
}

// Build appends Build(keys, vals, set).
func (b *PlanBuilder) Build(keys, vals, set string) *PlanBuilder {
	return b.add(Build(keys, vals, set))
}

// ProbeSemi appends ProbeSemi(in, table, col, set, out).
func (b *PlanBuilder) ProbeSemi(in, table, col, set, out string) *PlanBuilder {
	return b.add(ProbeSemi(in, table, col, set, out))
}

// Count appends Count(in, scalar).
func (b *PlanBuilder) Count(in, scalar string) *PlanBuilder { return b.add(Count(in, scalar)) }

// GroupSum appends GroupSum(keys, vals, partials).
func (b *PlanBuilder) GroupSum(keys, vals, partials string) *PlanBuilder {
	return b.add(GroupSum(keys, vals, partials))
}

// GroupMerge appends GroupMerge(partials, outKeys, outSums).
func (b *PlanBuilder) GroupMerge(partials, outKeys, outSums string) *PlanBuilder {
	return b.add(GroupMerge(partials, outKeys, outSums))
}

// Compile validates and lowers the accumulated plan (see
// PlanSpec.Compile).
func (b *PlanBuilder) Compile(st *Store) (*Plan, error) { return b.spec.Compile(st) }
