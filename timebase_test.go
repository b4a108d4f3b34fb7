package elasticore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// maxConversions bounds the SecondsToCycles uses that may stand outside
// the timebase and the config boundaries.
const maxConversions = 5

// conversionBoundaries are the functions that turn seconds a caller
// configured into cycles, keyed by file: the coordinator's timers, the
// fleet's fault-plan compilation and the open loop's arrival times.
var conversionBoundaries = map[string]string{
	"internal/cluster/coordinator.go": "newRun",
	"internal/cluster/fleet.go":       "NewFleet",
	"internal/workload/loop.go":       "prime",
}

// TestDurationsComeFromTheTimebase keeps simulated durations in one place.
// numa.Timebase converts every duration the model runs at; outside
// internal/numa and the config boundaries above, a non-test file of the
// root module may call SecondsToCycles, or take it as a method value, at
// most maxConversions times. CI reports the count this logs.
func TestDurationsComeFromTheTimebase(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "internal/numa" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && conversionBoundaries[filepath.ToSlash(path)] == fn.Name.Name {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "SecondsToCycles" {
					found = append(found, fset.Position(sel.Pos()).String())
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("duration conversions outside the timebase: %d", len(found))
	if len(found) > maxConversions {
		t.Errorf("%d SecondsToCycles uses outside numa.Timebase and the config boundaries, want at most %d:\n%s",
			len(found), maxConversions, strings.Join(found, "\n"))
	}
}
