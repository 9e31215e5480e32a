package cqabench_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptForTests lists the functions and methods under internal/ and cmd/
// that only tests call, each with the reason it stays. A key is the
// package directory's base name, then the receiver type for a method,
// then the function's name.
var keptForTests = map[string]string{
	"engine.NaiveHomomorphisms":           "oracle for the evaluator's homomorphism counts",
	"synopsis.BuildViaRewriting":          "oracle for the synopsis build (Appendix A's rewriting)",
	"repair.NaiveNaturalFreq":             "oracle for Natural's sampled frequency",
	"repair.CertainAnswers":               "enumeration oracle for cqa.CertainAnswers",
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
	"obs.Registry.Reset":                  "test seam: a clean registry between tests",
}

// TestInternalFuncsHaveCallers fails for each function or method declared
// in a non-test file under internal/ or cmd/ that no non-test Go file of
// the repository references outside the function's own declaration,
// unless keptForTests names it; main and init are exempt. Such a function
// serves only tests, and code the behavioural contract does not need is a
// candidate for deletion.
//
// References are resolved with go/types, so a dead function that shares
// its name with a live one is still found. A method also counts as called
// when it implements a referenced interface method of the same name, and
// String() string and Error() string count because fmt calls them. Any
// other method that only the standard library calls, such as
// mt.Source.Int63 through math/rand.Source, must be listed.
func TestInternalFuncsHaveCallers(t *testing.T) {
	// Without cgo the standard library type-checks from source alone.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	s := &repoScan{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.parse("."); err != nil {
		t.Fatal(err)
	}
	for p := range s.files {
		if _, err := s.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// The declarations the rule covers, each with its extent and key.
	type decl struct {
		from, to token.Pos
		key      string
	}
	decls := map[*types.Func]decl{}
	for p, files := range s.files {
		if !strings.HasPrefix(p, "cqabench/internal/") && !strings.HasPrefix(p, "cqabench/cmd/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init") {
					continue
				}
				obj := s.info.Defs[fn.Name].(*types.Func)
				key := path.Base(p) + "."
				if named := recvNamed(obj); named != nil {
					key += named.Obj().Name() + "."
				}
				decls[obj] = decl{fn.Pos(), fn.End(), key + obj.Name()}
			}
		}
	}

	called := map[*types.Func]bool{}
	var ifaceMethods []*types.Func
	for id, obj := range s.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := decls[fn]; ok && id.Pos() >= d.from && id.Pos() < d.to {
			continue
		}
		called[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	implementsCalled := func(fn *types.Func) bool {
		named := recvNamed(fn)
		if named == nil {
			return false
		}
		sig := fn.Type().(*types.Signature)
		if (fn.Name() == "String" || fn.Name() == "Error") && sig.Params().Len() == 0 &&
			sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
			return true
		}
		for _, m := range ifaceMethods {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if m.Name() == fn.Name() && types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	fns := make([]*types.Func, 0, len(decls))
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return decls[fns[i]].key < decls[fns[j]].key })
	declared := map[string]bool{}
	for _, fn := range fns {
		d := decls[fn]
		declared[d.key] = true
		_, kept := keptForTests[d.key]
		live := called[fn] || implementsCalled(fn)
		switch {
		case !live && !kept:
			t.Errorf("%s (%s): no non-test file calls it; delete it or move it into the tests that use it",
				d.key, s.fset.Position(d.from))
		case live && kept:
			t.Errorf("keptForTests names %s, which a non-test file calls", d.key)
		}
	}
	for key := range keptForTests {
		if !declared[key] {
			t.Errorf("keptForTests names %s, which is not declared under internal/ or cmd/", key)
		}
	}
}

// repoScan type-checks the repository's non-test packages: the root
// module, its commands and examples, and perfbench, whose module path
// cqabench/perfbench matches its directory too. It is the importer for
// the cqabench/ import paths and hands every other path to the standard
// library's source importer.
type repoScan struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	files map[string][]*ast.File    // by import path
	pkgs  map[string]*types.Package // by import path, once checked
}

// parse reads every non-test Go file below root that the go tool would
// build on this host, skipping hidden and testdata directories.
func (s *repoScan) parse(root string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Dir(p), d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := path.Join("cqabench", filepath.ToSlash(dir))
		s.files[importPath] = append(s.files[importPath], f)
		return nil
	})
}

// Import type-checks a repository package on first use, recording its
// definitions and uses in s.info.
func (s *repoScan) Import(importPath string) (*types.Package, error) {
	files, ok := s.files[importPath]
	if !ok {
		return s.std.Import(importPath)
	}
	if p, ok := s.pkgs[importPath]; ok {
		return p, nil
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(importPath, s.fset, files, s.info)
	s.pkgs[importPath] = p
	return p, err
}

// recvNamed returns the named type a method is declared on, or nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}
