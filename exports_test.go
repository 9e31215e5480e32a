package cqabench_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportsKeptForTests lists the exported functions and methods under
// internal/ that only tests call, each with the reason it stays. A key is
// the package directory's base name, then the receiver type for a method,
// then the function's name.
var exportsKeptForTests = map[string]string{
	"engine.NaiveHomomorphisms":           "oracle for the evaluator's homomorphism counts",
	"synopsis.BuildViaRewriting":          "oracle for the synopsis build (Appendix A's rewriting)",
	"repair.NaiveNaturalFreq":             "oracle for Natural's sampled frequency",
	"synopsis.Admissible.ExactMoments":    "oracle for §4.2's variance claim, which EXPERIMENTS.md cites",
	"synopsis.SamplerMoments.VarNatural":  "§4.2's variance of Natural, checked against ExactMoments",
	"synopsis.Admissible.ExactRatio":      "inclusion–exclusion oracle for Admissible.Exact",
	"synopsis.Admissible.BruteForceRatio": "enumeration oracle for Admissible.Exact",
	"scenario.PaperConfig":                "the paper's settings, which DESIGN.md cites",
	"scenario.PaperNoiseLevels":           "the paper's grid, checked against its text",
	"scenario.PaperBalanceLevels":         "the paper's grid, checked against its text",
	"scenario.PaperJoinLevels":            "the paper's grid, checked against its text",
	"mt.Source.Int63":                     "makes Source a math/rand.Source, as the package documents",
	"obs.SetNowFunc":                      "test seam: a fake clock for the package",
	"obs.WindowedHistogram.SetNowFunc":    "test seam: a fake clock for one histogram",
	"obs.Registry.Reset":                  "test seam: a clean registry between tests",
}

// TestInternalExportsHaveCallers fails for each exported function or
// method declared under internal/ whose name no non-test Go file in the
// repository references outside the function's own declaration, unless
// exportsKeptForTests names it. Such a function serves only tests, and
// code the behavioural contract does not need is a candidate for
// deletion. Names are matched, not resolved: a dead method that shares
// its name with a live one is missed, and a function called by name is
// never flagged. A method that only an interface of the standard library
// calls, such as mt.Source.Int63, must be listed.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dd := range f.Decls {
			// A function's name inside its own declaration is no reference.
			fn, _ := dd.(*ast.FuncDecl)
			own := ""
			if fn != nil {
				own = fn.Name.Name
			}
			ast.Inspect(dd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != own {
					refs[id.Name] = true
				}
				return true
			})
			if fn == nil || !internal || !ast.IsExported(own) {
				continue
			}
			key := filepath.Base(filepath.Dir(path)) + "."
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				key += fmt.Sprint(typ) + "."
			}
			decls = append(decls, decl{key + own, fset.Position(fn.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if _, kept := exportsKeptForTests[d.key]; !kept && !refs[name] {
			t.Errorf("%s (%s): no non-test file calls it; delete it or move it into the tests that use it", d.key, d.pos)
		}
	}
	for key := range exportsKeptForTests {
		if !declared[key] {
			t.Errorf("exportsKeptForTests names %s, which is not declared under internal/", key)
		}
	}
}
