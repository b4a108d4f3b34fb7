package elasticore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFacadeIsSpelled keeps elasticore.go to the names its callers use.
// An exported identifier of the facade stays only if one of these holds:
//   - a file under examples/ or cmd/, example_test.go or README.md spells
//     it as elasticore.X;
//   - bench_test.go, which is inside the package, uses it;
//   - a godoc ExampleX is named after it;
//   - the signature of a facade function kept by the rules above names it.
func TestFacadeIsSpelled(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	kept := map[string]bool{}
	spelled := regexp.MustCompile(`\belasticore\.([A-Z][A-Za-z0-9_]*)`)
	readSpellings := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spelled.FindAllStringSubmatch(string(src), -1) {
			kept[m[1]] = true
		}
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				readSpellings(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readSpellings("example_test.go")
	readSpellings("README.md")

	// Inside the package a name is an identifier, except where it selects
	// a field or method or keys a composite literal.
	notNames := map[*ast.Ident]bool{}
	ast.Inspect(parse("bench_test.go"), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			notNames[n.Sel] = true
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				notNames[id] = true
			}
		case *ast.Ident:
			if !notNames[n] {
				kept[n.Name] = true
			}
		}
		return true
	})

	for _, d := range parse("example_test.go").Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
			kept[strings.SplitN(strings.TrimPrefix(fn.Name.Name, "Example"), "_", 2)[0]] = true
		}
	}

	facade := parse("elasticore.go")
	var exported []string
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			exported = append(exported, d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported = append(exported, n.Name)
					}
				}
			}
		}
	}
	for _, d := range facade.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && kept[fn.Name.Name] {
			ast.Inspect(fn.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					kept[id.Name] = true
				}
				return true
			})
		}
	}

	var unspelled []string
	for _, name := range exported {
		if ast.IsExported(name) && !kept[name] {
			unspelled = append(unspelled, name)
		}
	}
	sort.Strings(unspelled)
	if len(unspelled) > 0 {
		t.Errorf("%d exported identifiers of elasticore.go have no caller: %s",
			len(unspelled), strings.Join(unspelled, ", "))
	}
}
