package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestTableStringClampsRaggedRows is the regression test for the latent
// panic: a row with more cells than the header used to index widths out
// of range.
func TestTableStringClampsRaggedRows(t *testing.T) {
	tb := &table{header: []string{"a", "b"}}
	tb.add("1", "2", "3", "4")
	tb.add("5")
	out := tb.String()
	for _, cell := range []string{"1", "2", "3", "4", "5"} {
		if !strings.Contains(out, cell) {
			t.Errorf("ragged render dropped cell %q:\n%s", cell, out)
		}
	}
}

// TestResultRaggedTableRenders pushes a ragged row through every Result
// renderer.
func TestResultRaggedTableRenders(t *testing.T) {
	res := &Result{Name: "ragged", Title: "Ragged"}
	tb := res.AddTable("t", colS("a"), colI("b"))
	tb.AddRow("x", 1, "extra", 2.5)
	if s := res.String(); !strings.Contains(s, "extra") {
		t.Errorf("text render lost the extra cell:\n%s", s)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("json: %v", err)
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatalf("csv: %v", err)
	}
}

func sampleResult() *Result {
	res := &Result{Name: "sample", Title: "Sample experiment"}
	res.Meta = Meta{SF: 0.01, Clients: 4, Seed: 2, Engine: "monetdb", Version: "test"}
	tb := res.AddTable("points",
		colS("label"), colI("count"), colF("rate", 2), colD("cost"))
	tb.AddRow("alpha", 3, 1.5, 250*time.Microsecond)
	tb.AddRow("beta", uint64(7), float32(2.25), time.Millisecond)
	res.AddMetric("total", 10, "points")
	res.AddArtifact("map", "##\n##")
	return res
}

func TestResultTextRendering(t *testing.T) {
	out := sampleResult().String()
	for _, want := range []string{
		"Sample experiment", "sample:", "seed=2", "total = 10 points",
		"[points]", "alpha", "1.50", "250µs", "[map]", "##",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text rendering missing %q:\n%s", want, out)
		}
	}
}

func TestResultJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name    string `json:"name"`
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
		Tables []struct {
			Name    string `json:"name"`
			Columns []struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"columns"`
			Rows [][]any `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Name != "sample" || len(doc.Tables) != 1 || len(doc.Tables[0].Rows) != 2 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	if doc.Tables[0].Columns[3].Kind != "duration" {
		t.Errorf("duration column kind = %q", doc.Tables[0].Columns[3].Kind)
	}
	// Duration cells serialize as integer nanoseconds.
	if ns, ok := doc.Tables[0].Rows[0][3].(float64); !ok || ns != 250000 {
		t.Errorf("duration cell = %v, want 250000 ns", doc.Tables[0].Rows[0][3])
	}
	if doc.Metrics[0].Value != 10 {
		t.Errorf("metric value = %v", doc.Metrics[0].Value)
	}
}

func TestResultCSVParses(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	// #table marker, header, 2 rows, #metrics marker, header, 1 metric.
	if len(records) != 7 {
		t.Fatalf("records = %d: %v", len(records), records)
	}
	if records[0][0] != "#table" || records[0][1] != "points" {
		t.Errorf("table marker = %v", records[0])
	}
	if records[2][0] != "alpha" || records[2][2] != "1.50" {
		t.Errorf("data row = %v", records[2])
	}
	// Durations are integer nanoseconds in CSV.
	if records[2][3] != "250000" {
		t.Errorf("duration cell = %q, want 250000", records[2][3])
	}
	if records[4][0] != "#metrics" {
		t.Errorf("metrics marker = %v", records[4])
	}
}

// TestTableColFindsByName: Col indexes the first column of that name, and
// an unknown name reads as a missing cell rather than a neighbour.
func TestTableColFindsByName(t *testing.T) {
	tb := sampleResult().Table("points")
	if got := tb.Col("rate"); got != 2 {
		t.Errorf("Col(rate) = %d, want 2", got)
	}
	if got := tb.Col("no-such-column"); got != -1 {
		t.Errorf("Col(no-such-column) = %d, want -1", got)
	}
	if _, ok := tb.Float(0, tb.Col("no-such-column")); ok {
		t.Error("a missing column read as present")
	}
}

func TestRenderUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().Render(&buf, "xml"); err == nil {
		t.Error("xml accepted")
	}
	if err := sampleResult().Render(&buf, ""); err != nil {
		t.Errorf("empty format should default to text: %v", err)
	}
}

// TestConfigValidation covers the central withDefaults checks.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value defaults", Config{}, true},
		{"negative SF", Config{SF: -0.5}, false},
		{"NaN SF", Config{SF: math.NaN()}, false},
		{"infinite SF", Config{SF: math.Inf(1)}, false},
		{"NaN load", Config{Loads: []float64{1, math.NaN()}}, false},
		{"infinite load", Config{Loads: []float64{math.Inf(1)}}, false},
		{"NaN lookup ratio", Config{LookupRatios: []float64{math.NaN()}}, false},
		{"negative clients", Config{Clients: -1}, false},
		{"zero user entry", Config{Users: []int{1, 0}}, false},
		{"tenants too many", Config{Tenants: 5}, false},
		{"tenants too few", Config{Tenants: 1}, false},
		{"tenants in range", Config{Tenants: 4}, true},
	}
	for _, tc := range cases {
		got, err := tc.cfg.withDefaults()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if got.SF <= 0 || got.Clients < 1 || got.Seed == 0 || len(got.Users) == 0 {
			t.Errorf("%s: defaults not applied: %+v", tc.name, got)
		}
		if got.Tenants < 2 || got.Tenants > 4 {
			t.Errorf("%s: tenants = %d outside 2..4", tc.name, got.Tenants)
		}
	}
}

// TestInvalidConfigRejectedBeforeWork: the Experiment wrapper surfaces
// validation errors without running the body.
func TestInvalidConfigRejectedBeforeWork(t *testing.T) {
	if _, err := runExp(t, "fig4", Config{SF: -1}); err == nil {
		t.Error("negative SF accepted by fig4")
	}
	if _, err := runExp(t, "consolidation", Config{Tenants: 9}); err == nil {
		t.Error("9 tenants accepted by consolidation")
	}
}

// TestMetaStamped: the wrapper fills Name, Title and Meta on every run.
func TestMetaStamped(t *testing.T) {
	res, err := runExp(t, "fig5", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fig5" {
		t.Errorf("name = %q", res.Name)
	}
	if res.Title == "" {
		t.Error("title empty")
	}
	if res.Meta.SF != 0.005 || res.Meta.Clients != 16 || res.Meta.Seed != 1 {
		t.Errorf("meta not stamped from config: %+v", res.Meta)
	}
	if res.Meta.Engine != "monetdb" {
		t.Errorf("engine = %q", res.Meta.Engine)
	}
	if res.Meta.Version == "" {
		t.Error("version empty")
	}
	if res.Meta.WallTime <= 0 {
		t.Error("wall time not recorded")
	}
}
