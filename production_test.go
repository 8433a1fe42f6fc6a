package faros_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// referencedByTestsOnly names the production functions that no non-test
// file calls but that stay in production code anyway, each with its reason.
// A helper that only its own package's tests use does not belong here: it
// moves into that package's export_test.go or a _test.go file.
var referencedByTestsOnly = map[string]string{
	"internal/vm.Machine.UseReferenceStep":   "seam that routes RunBlock through Step for core's and scenario's differentials",
	"internal/taint.Store.MemSet":            "per-byte shadow reference beside MemSetRange; core's reference bridge writes through it",
	"internal/taint.Store.ForEachTainted":    "canonical shadow walk core's differentials compare final taint state with",
	"internal/taint.Store.DistinctProcesses": "list walk that checks the precomputed DistinctProcessCount; core's tests use it",
	"internal/taint.Store.FirstOfType":       "core's finding and isolation tests read a list's netflow tag through it",
	"internal/taint.Store.SetWatch":          "shadow-change observer seam; core's lifecycle watch and taint's range-op oracle install it",
	"internal/provgraph.FromJSON":            "decodes served graphs back for pipeline's, experiments' and core's round-trip checks",
	"internal/mem.Space.WriteBytes":          "seeds guest memory in vm's, core's and malfind's tests",
	"internal/isa.Block.MustAssemble":        "assembles test-built programs in most packages' tests",
	"internal/isa.Block.MoviLabel":           "vm's self-modifying-code tests address code labels with it",
	"internal/faults.NewFSInjector":          "fault-injecting filesystem for trace's store tests",
	"internal/samples.Spinner":               "never-exiting guest that pipeline's cancellation and deadline tests wedge a worker with",
	"internal/experiments.Run":               "RunWith without rendering options; the root package's per-experiment benchmarks call it",
}

// calledThroughInterface names methods the standard library calls through
// an interface (errors, encoding/json), never by name.
var calledThroughInterface = map[string]bool{"Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true}

// TestProductionCodeIsReferenced keeps production code to what production
// runs. It parses every non-test file under internal/ and cmd/ and fails on
// an exported function or method that no non-test file of the tree names
// (perfbench/, examples/ and the root package count as referrers) unless
// referencedByTestsOnly gives a reason, and on an unexported one that no
// file names at all. References are matched by name, without type
// information, so a name shared with a used function hides a dead one;
// the check errs toward passing. internal/vm/vmtest exists only for tests
// and is exempt.
func TestProductionCodeIsReferenced(t *testing.T) {
	type fn struct {
		key      string // dir.Name or dir.Recv.Name
		method   bool
		exported bool
		pos      token.Position
	}
	var (
		fset     = token.NewFileSet()
		decls    []fn
		declName = map[*ast.Ident]bool{}
		// Methods are matched by name alone; package-level functions by
		// dir.Name, from an unqualified use in their own directory or a
		// selector on an import of it.
		prodRefs = map[string]int{}
		allRefs  = map[string]int{}
		testDirs = map[string]map[string]bool{} // ref -> directories of tests naming it
	)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		dir := filepath.ToSlash(filepath.Dir(path))
		if !test && (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) && dir != "internal/vm/vmtest" {
			for _, dd := range f.Decls {
				fd, ok := dd.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init") {
					continue
				}
				declName[fd.Name] = true
				key := dir + "."
				if fd.Recv != nil {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				decls = append(decls, fn{
					key:      key + fd.Name.Name,
					method:   fd.Recv != nil,
					exported: fd.Name.IsExported(),
					pos:      fset.Position(fd.Name.Pos()),
				})
			}
		}
		imports := map[string]string{} // local name -> directory
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if ipath != "faros" && !strings.HasPrefix(ipath, "faros/") {
				continue
			}
			local := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = strings.TrimPrefix(strings.TrimPrefix(ipath, "faros"), "/")
		}
		ref := func(key string) {
			allRefs[key]++
			if !test {
				prodRefs[key]++
			} else if testDirs[key] == nil {
				testDirs[key] = map[string]bool{dir: true}
			} else {
				testDirs[key][dir] = true
			}
		}
		sel := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					ref(imports[x.Name] + "." + n.Sel.Name)
				}
			case *ast.Ident:
				if declName[n] {
					break
				}
				ref("." + n.Name)
				if !sel[n] {
					ref(dir + "." + n.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no production functions found: the scan must run from the module root")
	}

	var bad []string
	listed := map[string]bool{}
	for _, d := range decls {
		ref := d.key
		if d.method {
			ref = d.key[strings.LastIndex(d.key, "."):]
		}
		switch {
		case d.method && calledThroughInterface[ref[1:]]:
		case d.exported && prodRefs[ref] == 0:
			listed[d.key] = true
			dir := d.key[:strings.Index(d.key, ".")]
			switch _, ok := referencedByTestsOnly[d.key]; {
			case !ok:
				bad = append(bad, d.pos.String()+": "+d.key+" is referenced only by tests, if at all")
			case len(testDirs[ref]) == 0 || len(testDirs[ref]) == 1 && testDirs[ref][dir]:
				bad = append(bad, d.pos.String()+": "+d.key+" is allow-listed but only its own package's tests use it")
			}
		case !d.exported && allRefs[ref] == 0:
			bad = append(bad, d.pos.String()+": "+d.key+" is never referenced")
		}
	}
	for key := range referencedByTestsOnly {
		if !listed[key] {
			bad = append(bad, "referencedByTestsOnly names "+key+", which is gone or now has a production caller")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	if len(bad) > 0 {
		t.Log("delete each function with its tests, move it into its package's _test.go files, " +
			"or give referencedByTestsOnly a one-line reason to keep it")
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
