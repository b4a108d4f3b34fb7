package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// result.go is the structured result model every experiment returns: named
// tables of typed columns plus scalar metrics, free-form text artifacts and
// run metadata. One model, three renderings — text, JSON, CSV — so tooling
// downstream of the catalogue never needs per-experiment result types.

// Kind is the value type of a table column.
type Kind int

const (
	// KindString cells hold free text (configuration labels, modes).
	KindString Kind = iota
	// KindInt cells hold integral counters (users, tasks, misses).
	KindInt
	// KindFloat cells hold measurements (throughput, seconds, GB/s).
	KindFloat
	// KindDuration cells hold host wall-clock durations.
	KindDuration
)

// String names the kind for the JSON schema.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindDuration:
		return "duration"
	default:
		return "string"
	}
}

// Column describes one typed table column.
type Column struct {
	Name string
	Kind Kind
	// Prec is the decimal precision of KindFloat cells in text and CSV
	// renderings (zero means 3, the package-wide default).
	Prec int
}

// Column constructors keep table schemas terse at call sites.
func colS(name string) Column           { return Column{Name: name, Kind: KindString} }
func colI(name string) Column           { return Column{Name: name, Kind: KindInt} }
func colF(name string, prec int) Column { return Column{Name: name, Kind: KindFloat, Prec: prec} }
func colD(name string) Column           { return Column{Name: name, Kind: KindDuration} }

// Table is one named relation of a Result.
type Table struct {
	Name    string
	Columns []Column
	// Rows holds normalized cells: string, int64, float64 or
	// time.Duration, matching the column kinds.
	Rows [][]any
}

// AddRow appends a row, normalizing numeric cell types. Extra or missing
// cells are kept as-is; the renderers tolerate ragged rows (see
// table.String).
func (t *Table) AddRow(cells ...any) {
	row := make([]any, len(cells))
	for i, c := range cells {
		row[i] = normalizeCell(c)
	}
	t.Rows = append(t.Rows, row)
}

func normalizeCell(c any) any {
	switch v := c.(type) {
	case string, int64, float64, time.Duration:
		return v
	case int:
		return int64(v)
	case int32:
		return int64(v)
	case uint:
		return int64(v)
	case uint32:
		return int64(v)
	case uint64:
		return int64(v)
	case float32:
		return float64(v)
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprint(v)
	}
}

// prec returns the rendering precision of column i.
func (t *Table) prec(i int) int {
	if i < len(t.Columns) && t.Columns[i].Prec > 0 {
		return t.Columns[i].Prec
	}
	return 3
}

// formatCell renders one cell for the text and CSV outputs.
func (t *Table) formatCell(i int, c any) string {
	switch v := c.(type) {
	case string:
		return v
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'f', t.prec(i), 64)
	case time.Duration:
		return v.String()
	default:
		return fmt.Sprint(v)
	}
}

// Col returns the index of the first column with the given name, or -1;
// the cell readers answer ok=false for -1, so a renamed column reads as
// missing instead of as its neighbour.
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Float reads cell (row, col) as a float64 (ints widen); ok reports whether
// the cell exists and is numeric.
func (t *Table) Float(row, col int) (float64, bool) {
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Rows[row]) {
		return 0, false
	}
	switch v := t.Rows[row][col].(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	case time.Duration:
		return float64(v), true
	}
	return 0, false
}

// Int reads cell (row, col) as an int64.
func (t *Table) Int(row, col int) (int64, bool) {
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Rows[row]) {
		return 0, false
	}
	switch v := t.Rows[row][col].(type) {
	case int64:
		return v, true
	case float64:
		return int64(v), true
	case time.Duration:
		return int64(v), true
	}
	return 0, false
}

// MarshalJSON emits the table as a schema-bearing object:
// {"name":..., "columns":[{"name","kind"}...], "rows":[[...]...]}.
// Duration cells become integer nanoseconds.
func (t *Table) MarshalJSON() ([]byte, error) {
	type jsonColumn struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	}
	cols := make([]jsonColumn, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = jsonColumn{Name: c.Name, Kind: c.Kind.String()}
	}
	rows := make([][]any, len(t.Rows))
	for i, r := range t.Rows {
		row := make([]any, len(r))
		for j, c := range r {
			if d, ok := c.(time.Duration); ok {
				row[j] = int64(d)
			} else {
				row[j] = c
			}
		}
		rows[i] = row
	}
	return json.Marshal(struct {
		Name    string       `json:"name"`
		Columns []jsonColumn `json:"columns"`
		Rows    [][]any      `json:"rows"`
	}{t.Name, cols, rows})
}

// Metric is one named scalar measurement of a run.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// Artifact is one named free-form text output (lifespan maps, tomographs).
type Artifact struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// Meta records how and when a Result was produced.
type Meta struct {
	// SF, Clients, Users, Seed and Tenants echo the effective Config.
	SF      float64 `json:"sf"`
	Clients int     `json:"clients"`
	Users   []int   `json:"users,omitempty"`
	Seed    uint64  `json:"seed"`
	Tenants int     `json:"tenants,omitempty"`
	// Engine is the engine flavour ("monetdb" or "sqlserver").
	Engine string `json:"engine"`
	// WallTime is the host wall-clock cost of the run.
	WallTime time.Duration `json:"wall_time_ns"`
	// Version identifies the build, git-describe style (VCS revision plus
	// a -dirty suffix), or "devel" outside a stamped build.
	Version string `json:"version"`
}

// Result is the structured outcome of one experiment run.
type Result struct {
	// Name is the catalogue name ("fig4", "consolidation", ...).
	Name string `json:"name"`
	// Title is the human headline ("Figure 4: Q6 under increasing
	// concurrency").
	Title string `json:"title"`
	Meta  Meta   `json:"meta"`
	// Metrics are scalar measurements in insertion order.
	Metrics []Metric `json:"metrics"`
	// Tables are the named relations in insertion order.
	Tables []*Table `json:"tables"`
	// Artifacts are free-form text outputs (omitted from CSV).
	Artifacts []Artifact `json:"artifacts,omitempty"`
}

// AddTable appends a named table with the given schema and returns it for
// row population.
func (r *Result) AddTable(name string, cols ...Column) *Table {
	t := &Table{Name: name, Columns: cols}
	r.Tables = append(r.Tables, t)
	return t
}

// Table returns the named table, or nil.
func (r *Result) Table(name string) *Table {
	for _, t := range r.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// AddMetric appends a scalar metric.
func (r *Result) AddMetric(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Metric returns the named scalar, with ok reporting presence.
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// AddArtifact appends a named text artifact.
func (r *Result) AddArtifact(name, text string) {
	r.Artifacts = append(r.Artifacts, Artifact{Name: name, Text: text})
}

// Artifact returns the named text artifact, or "".
func (r *Result) Artifact(name string) string {
	for _, a := range r.Artifacts {
		if a.Name == name {
			return a.Text
		}
	}
	return ""
}

// String renders the text form (WriteText).
func (r *Result) String() string {
	var b strings.Builder
	r.WriteText(&b) // strings.Builder writes cannot fail
	return b.String()
}

// errWriter forwards writes and remembers the first error, so the text
// renderer's many small writes need one check at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

// WriteText renders the result for humans: title, meta line, metrics,
// aligned tables, then artifacts. It returns the first write error, so a
// full disk surfaces instead of leaving a silently truncated file.
func (r *Result) WriteText(dst io.Writer) error {
	w := &errWriter{w: dst}
	fmt.Fprintln(w, r.Title)
	fmt.Fprintf(w, "%s: seed=%d sf=%g clients=%d engine=%s version=%s wall=%s\n",
		r.Name, r.Meta.Seed, r.Meta.SF, r.Meta.Clients, r.Meta.Engine,
		r.Meta.Version, r.Meta.WallTime)
	for _, m := range r.Metrics {
		if m.Unit != "" {
			fmt.Fprintf(w, "  %s = %g %s\n", m.Name, m.Value, m.Unit)
		} else {
			fmt.Fprintf(w, "  %s = %g\n", m.Name, m.Value)
		}
	}
	for _, tb := range r.Tables {
		if tb.Name != "" {
			fmt.Fprintf(w, "[%s]\n", tb.Name)
		}
		txt := &table{header: make([]string, len(tb.Columns))}
		for i, c := range tb.Columns {
			txt.header[i] = c.Name
		}
		for _, row := range tb.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = tb.formatCell(i, c)
			}
			txt.add(cells...)
		}
		io.WriteString(w, txt.String())
	}
	for _, a := range r.Artifacts {
		fmt.Fprintf(w, "[%s]\n%s\n", a.Name, a.Text)
	}
	return w.err
}

// WriteJSON renders the result as one indented JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV renders the result as CSV blocks: one block per table — a
// "#table,<name>" marker record, the column header, then the rows — and a
// final "#metrics" block. Duration cells become integer nanoseconds so
// every data cell stays machine-parseable. Artifacts are omitted.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, tb := range r.Tables {
		if err := cw.Write([]string{"#table", tb.Name}); err != nil {
			return err
		}
		header := make([]string, len(tb.Columns))
		for i, c := range tb.Columns {
			header[i] = c.Name
		}
		if err := cw.Write(header); err != nil {
			return err
		}
		for _, row := range tb.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				if d, ok := c.(time.Duration); ok {
					cells[i] = strconv.FormatInt(int64(d), 10)
				} else {
					cells[i] = tb.formatCell(i, c)
				}
			}
			if err := cw.Write(cells); err != nil {
				return err
			}
		}
	}
	if len(r.Metrics) > 0 {
		if err := cw.Write([]string{"#metrics", r.Name}); err != nil {
			return err
		}
		if err := cw.Write([]string{"name", "value", "unit"}); err != nil {
			return err
		}
		for _, m := range r.Metrics {
			if err := cw.Write([]string{m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render writes the result in the named format: "text", "json" or "csv".
func (r *Result) Render(w io.Writer, format string) error {
	switch format {
	case "", "text":
		return r.WriteText(w)
	case "json":
		return r.WriteJSON(w)
	case "csv":
		return r.WriteCSV(w)
	default:
		return fmt.Errorf("experiments: unknown format %q (want text, json or csv)", format)
	}
}

// buildVersion returns a git-describe-style identifier of the running
// binary: the stamped VCS revision (truncated, with -dirty when the tree
// was modified), the module version, or "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	var rev, suffix string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				suffix = "-dirty"
			}
		}
	}
	if rev == "" {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + suffix
}
