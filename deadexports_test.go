package opprentice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports lists the exported identifiers under internal/ that no
// non-test file uses but that stay, each with its reason. A key is the
// package's path below internal/, a dot and the identifier ("Type.Method"
// for a method); keys are path.Match patterns. An entry that names nothing
// dead fails the test too.
var keptExports = map[string]string{
	"faultinject.*":                 "test-support package: the fault hooks tests install",
	"simtest.*":                     "test-support package: the simulation tests drive",
	"linalg.ComputeSVD":             "exact SVD, the reference the sliding SVD detector is tested against",
	"linalg.SVD.Reconstruct":        "rank-k reconstruction, the oracle for the exact SVD's tests",
	"ml/tree.NewBinner":             "encode-by-search, the reference the presorted binning is tested against",
	"core.Class*":                   "the anomaly-class wire codes: typed label records and type artifacts carry them, and no code may renumber them",
	"tsdb.WithShards":               "the only way a test gets a one-shard store, whose frame sequence is deterministic",
	"engine.kindError.Unwrap":       "errors.Is and errors.As call it through an interface package errors does not export",
	"core.FeatureCache.Bytes":       "engine tests check the cache budget against the live cache's footprint",
	"alerting.Pipeline.BreakerOpen": "alerting's black-box tests (package alerting_test) assert the breaker opened",
}

// TestNoDeadExports fails on every exported package-level func, type, var
// and const, and every exported method, declared in a non-test file under
// internal/ that no non-test file of this module or of bench/ references and
// keptExports does not list. Uses in the declaring package count; the
// declaration itself does not. Struct fields are exempt, and so is a method
// whose type satisfies an interface that has the method: one the program
// declares, or one of exemptInterfaces.
func TestNoDeadExports(t *testing.T) {
	if len(keptExports) > 15 {
		t.Errorf("keptExports has %d entries; the limit is 15", len(keptExports))
	}
	dead, stale := deadExports(t, []string{".", "bench"}, keptExports)
	for _, d := range dead {
		t.Errorf("%s is exported, but no non-test file uses it: delete it, or list it in keptExports with a reason", d)
	}
	for _, k := range stale {
		t.Errorf("keptExports[%q] names nothing dead: remove the entry", k)
	}
}

// TestDeadExportsAnalysis runs the gate's analysis on the module in
// testdata/deadexports.
func TestDeadExportsAnalysis(t *testing.T) {
	dead, stale := deadExports(t, []string{"testdata/deadexports"}, map[string]string{
		"lib.Listed": "listed",
		"lib.Gone":   "stale: the module declares no Gone",
	})
	reported := map[string]bool{}
	for _, d := range dead {
		reported[d[strings.LastIndexByte(d, ' ')+1:]] = true
	}
	for _, k := range stale {
		reported[k] = true
	}
	for _, tc := range []struct {
		key  string
		want bool
	}{
		{"lib.Dead", true},
		{"lib.TestOnly", true}, // used only from lib_test.go
		{"lib.Gone", true},     // the stale entry
		{"lib.Listed", false},
		{"lib.Used", false},
		{"lib.Shape", false},
		{"lib.Square", false},
		{"lib.Square.Area", false},          // satisfies Shape
		{"lib.Square.MarshalBinary", false}, // satisfies encoding.BinaryMarshaler
	} {
		if reported[tc.key] != tc.want {
			t.Errorf("%s: reported %v, want %v", tc.key, reported[tc.key], tc.want)
		}
		delete(reported, tc.key)
	}
	for k := range reported {
		t.Errorf("%s: reported, but not in the table", k)
	}
}

// exemptInterfaces names the standard-library interfaces, besides error,
// whose methods a type may carry with no caller in the program; "*" takes
// every interface the package declares.
var exemptInterfaces = map[string][]string{
	"encoding":      {"BinaryMarshaler", "BinaryUnmarshaler"},
	"encoding/gob":  {"GobEncoder", "GobDecoder"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"fmt":           {"Stringer"},
	"io":            {"*"},
	"net/http":      {"Handler"},
	"sort":          {"Interface"},
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

type exported struct {
	key  string
	pos  token.Position
	span [2]token.Pos // the declaration, whose own uses do not count
	used bool
}

// deadExports type-checks the non-test files of every package of the
// modules rooted at dirs, with the standard library read from export data.
// It returns the dead exports under each module's internal/, as
// "file:line: key" in file order, and the keys of kept that match none.
func deadExports(t testing.TB, dirs []string, kept map[string]string) (dead, stale []string) {
	t.Helper()
	var pkgs []*listedPackage
	byPath := map[string]*listedPackage{}
	for _, dir := range dirs {
		args := []string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard,Module,Error", "./..."}
		for std := range exemptInterfaces {
			args = append(args, std)
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		// -deps prints every package after its dependencies.
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(listedPackage)
			if err := dec.Decode(p); err != nil {
				t.Fatalf("go list in %s: %v", dir, err)
			}
			if p.Error != nil {
				t.Fatalf("go list in %s: %s", dir, p.Error.Err)
			}
			if byPath[p.ImportPath] == nil {
				byPath[p.ImportPath] = p
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	fromExport := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := byPath[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return fromExport.Import(path)
	})}

	decls := map[types.Object]*exported{}
	receivers := map[*ast.Ident]bool{} // a receiver's type is part of the type's declaration
	var interfaces []*types.Interface
	var infos []*types.Info
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		infos = append(infos, info)
		interfaces = appendInterfaces(interfaces, tp, "*")

		rel, internal := strings.CutPrefix(p.ImportPath, p.Module.Path+"/internal/")
		add := func(id *ast.Ident, key string, span [2]token.Pos) {
			if internal && id.IsExported() {
				decls[info.Defs[id]] = &exported{key: rel + "." + key, pos: fset.Position(id.Pos()), span: span}
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					span := [2]token.Pos{d.Pos(), d.End()}
					if d.Recv == nil {
						add(d.Name, d.Name.Name, span)
						continue
					}
					recv := receiverIdent(d.Recv.List[0].Type)
					receivers[recv] = true
					add(d.Name, recv.Name+"."+d.Name.Name, span)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						span := [2]token.Pos{spec.Pos(), spec.End()}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, span)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, n.Name, span)
							}
						}
					}
				}
			}
		}
	}
	interfaces = append(interfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for std, names := range exemptInterfaces {
		tp, err := fromExport.Import(std)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			interfaces = appendInterfaces(interfaces, tp, name)
		}
	}

	for _, info := range infos {
		for id, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if d := decls[obj]; d != nil && !receivers[id] && (id.Pos() < d.span[0] || id.Pos() >= d.span[1]) {
				d.used = true
			}
		}
	}

	hits := map[string]int{}
	wd, _ := os.Getwd()
	for obj, d := range decls {
		if d.used || satisfiesInterface(obj, interfaces) {
			continue
		}
		listed := false
		for k := range kept {
			if ok, _ := path.Match(k, d.key); ok {
				hits[k]++
				listed = true
			}
		}
		if !listed {
			file, err := filepath.Rel(wd, d.pos.Filename)
			if err != nil {
				file = d.pos.Filename
			}
			dead = append(dead, fmt.Sprintf("%s:%d: %s", file, d.pos.Line, d.key))
		}
	}
	for k := range kept {
		if hits[k] == 0 {
			stale = append(stale, k)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// appendInterfaces appends the non-generic interfaces with methods that tp
// declares at package level under name, or under any name for "*".
func appendInterfaces(dst []*types.Interface, tp *types.Package, name string) []*types.Interface {
	for _, n := range tp.Scope().Names() {
		tn, ok := tp.Scope().Lookup(n).(*types.TypeName)
		if !ok || name != "*" && n != name {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			dst = append(dst, it)
		}
	}
	return dst
}

// satisfiesInterface reports whether obj is a method whose receiver type
// (through a pointer, whose method set holds both receiver kinds) implements
// one of interfaces that has the method.
func satisfiesInterface(obj types.Object, interfaces []*types.Interface) bool {
	f, ok := obj.(*types.Func)
	if !ok || f.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := f.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range interfaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == f.Name() &&
				types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

// receiverIdent returns the type name in a method's receiver expression.
func receiverIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		default:
			return e.(*ast.Ident)
		}
	}
}
