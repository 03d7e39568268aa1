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
	"slices"
	"sort"
	"strings"
	"sync"
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
	"ml/tree.NewBinner":             "one matrix's binner in one call: the search-based references of the tree and forest tests encode with it",
	"core.Class*":                   "the anomaly-class wire codes: typed label records and type artifacts carry them, and no code may renumber them",
	"tsdb.WithShards":               "the only way a test gets a one-shard store, whose frame sequence is deterministic",
	"engine.kindError.Unwrap":       "errors.Is and errors.As call it through an interface package errors does not export",
	"core.FeatureCache.Bytes":       "engine tests check the cache budget against the live cache's footprint",
	"alerting.Pipeline.BreakerOpen": "alerting's black-box tests (package alerting_test) assert the breaker opened",
}

// keptKnobs lists the option fields under internal/ that no program sets
// but that stay, each with its reason; keys are "pkg.Type.Field" path.Match
// patterns, as in keptExports. An entry that names nothing dead fails the
// test too.
var keptKnobs = map[string]string{
	"ml/tree.Config.MinLeaf": "the split-search oracles grow trees at MinLeaf 3 and 50 to reach the bound's refusal path",
	"registry.Config.Rename": "the fault-injection seam for a rename that fails mid-publish",
}

// keptGoroutines lists the go statements under internal/ that stay, each a
// long-lived worker or a watchdog, with its reason: every bounded parallel
// section runs on fanout.Run. A key is the package's path below internal/,
// a dot, the enclosing function ("Type.Method" for a method) and, in
// parentheses, the function the statement starts ("func" for a literal);
// keys are path.Match patterns, as in keptExports. An entry that names no
// go statement fails the test too.
var keptGoroutines = map[string]string{
	"fanout.Run(spawned)":               "the bounded pool itself: its workers beside the caller, joined before Run returns",
	"engine.New(e.retrainWorker)":       "the background retrain workers, alive until Close",
	"engine.New(e.publishWorker)":       "the background model publisher, alive until Close",
	"engine.Engine.supervise(func)":     "the training watchdog: runs a round it may abandon at the deadline",
	"alerting.NewPipeline(p.run)":       "a notification pipeline's delivery loop, alive until Close",
	"tsdb.Open(sh.run)":                 "each store shard's group-commit appender, alive until Close",
	"service.Client.StreamPoints(func)": "an ingest stream's request and response reader, alive while the stream is open",
	"simtest.gatedStore.Submit(func)":   "test-support package: forwards the writes parked behind an armed gate once it opens",
}

// gateModules are the module roots the gates read: this module and bench/.
var gateModules = []string{".", "bench"}

// TestNoDeadExports fails on every exported package-level func, type, var
// and const, and every exported method, declared in a non-test file under
// internal/ that no non-test file of this module or of bench/ references and
// keptExports does not list. Uses in the declaring package count; the
// declaration itself does not. Struct fields are exempt (TestNoDeadKnobs
// checks the option fields), and so is a method whose type satisfies an
// interface that has the method: one the program declares, or one of
// exemptInterfaces.
func TestNoDeadExports(t *testing.T) {
	if len(keptExports) > 15 {
		t.Errorf("keptExports has %d entries; the limit is 15", len(keptExports))
	}
	dead, stale := deadExports(t, loadProgram(t, gateModules...), keptExports)
	for _, d := range dead {
		t.Errorf("%s is exported, but no non-test file uses it: delete it, or list it in keptExports with a reason", d)
	}
	for _, k := range stale {
		t.Errorf("keptExports[%q] names nothing dead: remove the entry", k)
	}
}

// maxOptionFields and maxDaemonFlags are the ceilings of the settable tally:
// the option fields of every option struct, and cmd/opprenticed's flags. A
// change that removes a settable value lowers its ceiling to match.
const maxOptionFields, maxDaemonFlags = 70, 17

// TestNoDeadKnobs fails on every exported field of an exported struct type
// under internal/ whose name ends in Config or Options that no non-test file
// of this module or of bench/ references outside the declaring package, and
// keptKnobs does not list. A value no program sets is a constant: the
// declaring package's own uses, such as its default fills, do not count. It
// fails too when the settable tally rises above maxOptionFields or
// maxDaemonFlags. Under -v it logs that tally: each option struct's field
// count and cmd/opprenticed's flags.
func TestNoDeadKnobs(t *testing.T) {
	if len(keptKnobs) > 5 {
		t.Errorf("keptKnobs has %d entries; the limit is 5", len(keptKnobs))
	}
	prog := loadProgram(t, gateModules...)
	dead, stale := deadKnobs(prog, keptKnobs)
	for _, d := range dead {
		t.Errorf("%s is an option no program sets: make it the constant its default is, or list it in keptKnobs with a reason", d)
	}
	for _, k := range stale {
		t.Errorf("keptKnobs[%q] names nothing dead: remove the entry", k)
	}
	lines, fields, flags := settable(prog, "opprentice/cmd/opprenticed")
	for _, line := range lines {
		t.Log("settable: " + line)
	}
	if fields > maxOptionFields {
		t.Errorf("%d option fields, over the ceiling of %d: make the new one a constant, or remove another", fields, maxOptionFields)
	}
	if flags > maxDaemonFlags {
		t.Errorf("%d opprenticed flags, over the ceiling of %d: make the new one a constant, or remove another", flags, maxDaemonFlags)
	}
}

// TestNoStrayGoroutines fails on every go statement in a non-test file
// under internal/ of this module or of bench/ that keptGoroutines does not
// list: a parallel section runs on fanout.Run, so a go statement anywhere
// else is a pool of its own, with its own join and its own panic behaviour.
func TestNoStrayGoroutines(t *testing.T) {
	unlisted, stale := goStatements(loadProgram(t, gateModules...), keptGoroutines)
	for _, g := range unlisted {
		t.Errorf("%s starts a goroutine: run the section on fanout.Run, or list a long-lived worker in keptGoroutines with a reason", g)
	}
	for _, k := range stale {
		t.Errorf("keptGoroutines[%q] names no go statement: remove the entry", k)
	}
}

// TestDeadExportsAnalysis runs the export gate's analysis on the module in
// testdata/deadexports, whose declarations say which are dead.
func TestDeadExportsAnalysis(t *testing.T) {
	dead, stale := deadExports(t, loadProgram(t, "testdata/deadexports"), map[string]string{
		"lib.Listed": "listed",
		"lib.Gone":   "stale: the module declares no Gone",
	})
	checkReported(t, dead, stale, "lib.Dead", "lib.Gone", "lib.TestOnly")
}

// TestDeadKnobsAnalysis runs the knob gate's analysis on the same module:
// of lib.Config's fields, Set is set from main and Flagged bound by
// flag.IntVar there, while Defaulted is set only by lib's own withDefaults
// and TestOnly only from lib_test.go.
func TestDeadKnobsAnalysis(t *testing.T) {
	dead, stale := deadKnobs(loadProgram(t, "testdata/deadexports"), map[string]string{
		"lib.Config.Listed": "listed",
		"lib.Config.Gone":   "stale: Config has no field Gone",
	})
	checkReported(t, dead, stale, "lib.Config.Defaulted", "lib.Config.Gone", "lib.Config.TestOnly")
}

// TestGoStatementsAnalysis runs the goroutine gate's analysis on the same
// module, whose lib.start starts one listed goroutine and one planted one.
func TestGoStatementsAnalysis(t *testing.T) {
	unlisted, stale := goStatements(loadProgram(t, "testdata/deadexports"), map[string]string{
		"lib.start(drain)": "listed",
		"lib.Gone(func)":   "stale: the module declares no Gone",
	})
	checkReported(t, unlisted, stale, "lib.Gone(func)", "lib.start(func)")
}

// checkReported fails unless the keys of dead ("file:line: key") and stale
// are exactly want, in order.
func checkReported(t *testing.T, dead, stale []string, want ...string) {
	t.Helper()
	got := stale
	for _, d := range dead {
		got = append(got, d[strings.LastIndexByte(d, ' ')+1:])
	}
	if sort.Strings(got); !slices.Equal(got, want) {
		t.Errorf("reported %q, want %q", got, want)
	}
}

// exemptInterfaces names the standard-library interfaces, besides error,
// whose methods a type may carry with no caller in the program; "*" takes
// every interface the package declares.
var exemptInterfaces = map[string][]string{
	"encoding":      {"BinaryMarshaler", "BinaryUnmarshaler"},
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

// checkedPackage is one type-checked package of a program.
type checkedPackage struct {
	*listedPackage
	files    []*ast.File
	info     *types.Info
	types    *types.Package
	rel      string // the import path below the module's internal/
	internal bool
}

// program is the non-test code of the modules rooted at some directories,
// type-checked with the standard library read from export data.
type program struct {
	fset *token.FileSet
	pkgs []*checkedPackage  // every package after its dependencies
	std  types.ImporterFrom // the standard library's export data
}

var (
	programsMu sync.Mutex
	programs   = map[string]*program{}
)

// loadProgram type-checks the non-test files of every package of the modules
// rooted at dirs, once per set of dirs: the gates share the load.
func loadProgram(t testing.TB, dirs ...string) *program {
	t.Helper()
	programsMu.Lock()
	defer programsMu.Unlock()
	key := strings.Join(dirs, "\n")
	if prog := programs[key]; prog != nil {
		return prog
	}

	var listed []*listedPackage
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
				listed = append(listed, p)
			}
		}
	}

	prog := &program{fset: token.NewFileSet()}
	prog.std = importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := byPath[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}).(types.ImporterFrom)
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return prog.std.Import(path)
	})}
	for _, p := range listed {
		if p.Standard {
			continue
		}
		cp := &checkedPackage{listedPackage: p}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		cp.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := conf.Check(p.ImportPath, prog.fset, cp.files, cp.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath], cp.types = tp, tp
		cp.rel, cp.internal = strings.CutPrefix(p.ImportPath, p.Module.Path+"/internal/")
		prog.pkgs = append(prog.pkgs, cp)
	}
	programs[key] = prog
	return prog
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// candidate is one declaration a gate checks for users.
type candidate struct {
	key  string
	pos  token.Position
	used bool
}

// sweep returns the unused candidates that kept does not list, as
// "file:line: key" in file order, and the keys of kept that match no unused
// candidate.
func sweep(cands []*candidate, kept map[string]string) (dead, stale []string) {
	hits := map[string]int{}
	wd, _ := os.Getwd()
	for _, c := range cands {
		if c.used {
			continue
		}
		listed := false
		for k := range kept {
			if ok, _ := path.Match(k, c.key); ok {
				hits[k]++
				listed = true
			}
		}
		if !listed {
			file, err := filepath.Rel(wd, c.pos.Filename)
			if err != nil {
				file = c.pos.Filename
			}
			dead = append(dead, fmt.Sprintf("%s:%d: %s", file, c.pos.Line, c.key))
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

// deadExports returns the dead exports under each module's internal/, as
// "file:line: key" in file order, and the keys of kept that match none.
func deadExports(t testing.TB, prog *program, kept map[string]string) (dead, stale []string) {
	t.Helper()
	type export struct {
		*candidate
		span [2]token.Pos // the declaration, whose own uses do not count
	}
	decls := map[types.Object]export{}
	receivers := map[*ast.Ident]bool{} // a receiver's type is part of the type's declaration
	var interfaces []*types.Interface
	for _, p := range prog.pkgs {
		interfaces = appendInterfaces(interfaces, p.types, "*")
		add := func(id *ast.Ident, key string, span [2]token.Pos) {
			if p.internal && id.IsExported() {
				decls[p.info.Defs[id]] = export{&candidate{key: p.rel + "." + key, pos: prog.fset.Position(id.Pos())}, span}
			}
		}
		for _, f := range p.files {
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
		tp, err := prog.std.Import(std)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			interfaces = appendInterfaces(interfaces, tp, name)
		}
	}

	for _, p := range prog.pkgs {
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if d, ok := decls[obj]; ok && !receivers[id] && (id.Pos() < d.span[0] || id.Pos() >= d.span[1]) {
				d.used = true
			}
		}
	}
	var cands []*candidate
	for obj, d := range decls {
		d.used = d.used || satisfiesInterface(obj, interfaces)
		cands = append(cands, d.candidate)
	}
	return sweep(cands, kept)
}

// optionFields returns the exported fields of every exported struct type
// under internal/ whose name ends in Config or Options, keyed "pkg.Type".
func optionFields(prog *program) map[string][]*types.Var {
	out := map[string][]*types.Var{}
	for _, p := range prog.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !p.internal || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				var fields []*types.Var
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						fields = append(fields, st.Field(i))
					}
				}
				out[p.rel+"."+name] = fields
			}
		}
	}
	return out
}

// deadKnobs returns the option fields no program sets, as "file:line: key"
// in file order, and the keys of kept that match none. A field counts as
// set when a non-test file outside its package names it: a selector, a
// composite-literal key, or &cfg.Field handed to the flag package. Unkeyed
// literals of another package's struct name no field, but go vet refuses
// them.
func deadKnobs(prog *program, kept map[string]string) (dead, stale []string) {
	fields := map[*types.Var]*candidate{}
	var cands []*candidate
	for key, vars := range optionFields(prog) {
		for _, f := range vars {
			c := &candidate{key: key + "." + f.Name(), pos: prog.fset.Position(f.Pos())}
			fields[f] = c
			cands = append(cands, c)
		}
	}
	for _, p := range prog.pkgs {
		for _, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
				if c := fields[v.Origin()]; c != nil {
					c.used = true
				}
			}
		}
	}
	return sweep(cands, kept)
}

// goStatements returns the go statements in the non-test files under each
// module's internal/ that kept does not list, as "file:line: key" in file
// order, and the keys of kept that match none.
func goStatements(prog *program, kept map[string]string) (unlisted, stale []string) {
	var cands []*candidate
	for _, p := range prog.pkgs {
		if !p.internal {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				encl := "var" // a package-level initializer
				if d, ok := decl.(*ast.FuncDecl); ok {
					encl = d.Name.Name
					if d.Recv != nil {
						encl = receiverIdent(d.Recv.List[0].Type).Name + "." + encl
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						callee := "func"
						if _, lit := g.Call.Fun.(*ast.FuncLit); !lit {
							callee = types.ExprString(g.Call.Fun)
						}
						key := fmt.Sprintf("%s.%s(%s)", p.rel, encl, callee)
						cands = append(cands, &candidate{key: key, pos: prog.fset.Position(g.Pos())})
					}
					return true
				})
			}
		}
	}
	return sweep(cands, kept)
}

// settable tallies the program's settable values, one line each: every
// option struct's exported field count, then the flags the daemon package
// at importPath defines (its uses of package flag's functions that take a
// usage string: the flag definers, and nothing else there). It returns the
// field and flag totals too.
func settable(prog *program, importPath string) (lines []string, fields, flags int) {
	for key, vars := range optionFields(prog) {
		lines = append(lines, fmt.Sprintf("%-28s %3d fields", key, len(vars)))
		fields += len(vars)
	}
	sort.Strings(lines)
	for _, p := range prog.pkgs {
		if p.ImportPath != importPath {
			continue
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "flag" {
				params := fn.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					if params.At(i).Name() == "usage" {
						flags++
					}
				}
			}
		}
		lines = append(lines, fmt.Sprintf("%-28s %3d flags", path.Base(importPath), flags))
	}
	return lines, fields, flags
}

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
