package resilience

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
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// noCallerAllowed lists the top-level declarations under internal/ and
// cmd/ that no program reaches but that stay, each with its reason. Keys
// are "<package dir>.<Name>" or "<package dir>.<Type>.<Method>". What an
// entry itself refers to counts as reached.
var noCallerAllowed = map[string]string{
	"internal/sparse.CSR.IsSymmetric":      "test oracle: generated and parsed matrices are checked for symmetry",
	"internal/sparse.CSR.GershgorinBounds": "test oracle: spectral bounds of the generated systems",
	"internal/sparse.CSR.Diag":             "test oracle: the Jacobi diagonal the preconditioned solver tests feed in",
	"internal/sparse.CSR.Clone":            "test fixture: the Validate tests corrupt copies of a valid matrix",
	"internal/dense.Matrix.MulVec":         "test oracle: the residual of the QR least-squares solve",
	"internal/dense.Matrix.MulTransVec":    "test oracle: the normal-equations check of the QR least-squares solve",
	"internal/sparse.WriteMatrixMarket":    "test oracle: round trip of the Matrix Market reader",
	"internal/vec.Dist2":                   "test oracle: distance of a solution from the reference one",
	"internal/matgen.Laplacian1D":          "test oracle: the smallest SPD system with a known spectrum",
	"internal/obs.ValidateChromeTrace":     "check code: schema check of every Chrome trace the tests write",
	"internal/obs.BucketLower":             "test oracle: histogram bucket bounds",
	"internal/obs.Histogram.Name":          "code layout: deleting it moves sparse.CSR.MulVec from 32 to 0 mod 64, and solve_kernel's cpu_ms_per_op rose 13-18 %; goes once the benchmark pins the kernel's alignment (ROADMAP item 6)",
	"internal/obs.Counter.Value":           "check code: the router tests read its counters",
	"internal/obs.Snapshot.Counter":        "check code: the service tests read counters from a telemetry snapshot",
	"internal/chaos.ReadCorpus":            "check code: reads the distilled chaos corpus the tests replay",
	"internal/core.System.BaselineRuns":    "check code: counts fault-free runs for the shared-baseline gate",
	"internal/model.PredictFF":             "planned caller: the model-versus-simulation gate (ROADMAP item 1)",
	"internal/model.PredictESR":            "planned caller: the model-versus-simulation gate (ROADMAP item 1)",
	"internal/model.PredictLCR":            "planned caller: the model-versus-simulation gate (ROADMAP item 1)",
}

// implicitMethods are method names the standard library calls through an
// interface (fmt, errors, encoding/json, net/http, sort, io), so a method
// of that name on a reached type is reached without code in this module
// calling it.
var implicitMethods = []string{
	"Error", "String", "Unwrap", "MarshalJSON", "UnmarshalJSON", "ServeHTTP",
	"Len", "Less", "Swap", "Read", "Write", "Close",
}

// TestEveryDeclarationHasACaller fails when a top-level declaration under
// internal/ or cmd/ is reached from no program: no non-test code names it,
// or only code that is itself unreached does. The programs are the
// commands, the examples, the benchmark (bench/) and the public facade in
// the repository root; their declarations are the roots, as are init
// functions, blank declarations and noCallerAllowed. The module is type
// checked, so x.M reaches only the M of x's static type; when x is an
// interface, it reaches M on every reached type that implements the
// interface.
func TestEveryDeclarationHasACaller(t *testing.T) {
	g, err := loadDeclGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range g.unreached(noCallerAllowed) {
		t.Errorf("%s: no program reaches it; delete it, or allowlist it in noCallerAllowed with a reason", key)
	}
	dead := g.unreached(nil)
	for key := range noCallerAllowed {
		if i := sort.SearchStrings(dead, key); i == len(dead) || dead[i] != key {
			t.Errorf("noCallerAllowed: %s is reached or no longer declared; remove its entry", key)
		}
	}
}

// declGraph holds every top-level declaration of the module and what each
// refers to.
type declGraph struct {
	decls map[types.Object]*declNode
	// methods maps a named type to its declared methods.
	methods map[*types.TypeName][]*types.Func
	roots   []types.Object
}

type declNode struct {
	key     string // "<package dir>.<Name>" or "<package dir>.<Type>.<Method>"
	checked bool   // under internal/ or cmd/
	refs    []types.Object
	// calls are the interface methods the declaration selects.
	calls []ifaceMethod
}

// ifaceMethod is a method selected on an interface-typed value.
type ifaceMethod struct {
	iface *types.Interface
	name  string
}

// listedPackage is the part of `go list -json` the graph reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// loadDeclGraph type checks the module's non-test code from source, with
// the standard library read from the compiler's export data, and builds
// its declaration graph.
func loadDeclGraph() (*declGraph, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var module []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			module = append(module, p) // dependencies first
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	g := &declGraph{decls: map[types.Object]*declNode{}, methods: map[*types.TypeName][]*types.Func{}}
	for _, p := range module {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		dir, err := filepath.Rel(root, p.Dir)
		if err != nil {
			return nil, err
		}
		g.addPackage(filepath.ToSlash(dir), files, info)
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addPackage adds the top-level declarations of one type-checked package.
func (g *declGraph) addPackage(dir string, files []*ast.File, info *types.Info) {
	checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
	add := func(name *ast.Ident, n ast.Node) {
		obj := info.Defs[name]
		key := dir + "." + name.Name
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			tn := recvTypeName(fn)
			key = dir + "." + tn.Name() + "." + name.Name
			g.methods[tn] = append(g.methods[tn], fn)
		}
		// Every init function and blank declaration runs, and a package
		// may hold several of each: each has its own object.
		if !checked || key == dir+".main" || key == dir+".init" || name.Name == "_" {
			g.roots = append(g.roots, obj)
		}
		node := &declNode{key: key, checked: checked}
		node.collect(n, info)
		g.decls[obj] = node
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, s)
						}
					}
				}
			}
		}
	}
}

// recvTypeName returns the named type a method is declared on.
func recvTypeName(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// collect records what the declaration n refers to: the package-level
// objects and concrete methods it names, and the methods it selects on
// interface-typed values.
func (d *declNode) collect(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					d.calls = append(d.calls, ifaceMethod{iface, fn.Name()})
				} else {
					d.refs = append(d.refs, fn.Origin())
				}
				return true
			}
		}
		if obj.Parent() == obj.Pkg().Scope() {
			d.refs = append(d.refs, obj)
		}
		return true
	})
}

// unreached walks the graph from the roots and the keys of kept, and
// returns the sorted keys of the checked declarations it never reaches.
func (g *declGraph) unreached(kept map[string]string) []string {
	reached := map[types.Object]bool{}
	var queue []types.Object
	reach := func(obj types.Object) {
		if g.decls[obj] != nil && !reached[obj] {
			reached[obj] = true
			queue = append(queue, obj)
		}
	}
	for _, obj := range g.roots {
		reach(obj)
	}
	for obj, n := range g.decls {
		if _, ok := kept[n.key]; ok {
			reach(obj)
		}
	}
	implicit := map[string]bool{}
	for _, m := range implicitMethods {
		implicit[m] = true
	}
	var reachedTypes []*types.TypeName // in reach order
	var calls []ifaceMethod            // selected by reached code
	seenCall := map[ifaceMethod]bool{}
	tried := map[[2]int]bool{} // (type, call) index pairs already matched
	// Walk the references; then, for every reached type, reach its
	// implicitly called methods and the methods that implement a reached
	// interface call; repeat until nothing new is reached.
	for len(queue) > 0 {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			n := g.decls[obj]
			for _, r := range n.refs {
				reach(r)
			}
			for _, c := range n.calls {
				if !seenCall[c] {
					seenCall[c] = true
					calls = append(calls, c)
				}
			}
			if tn, ok := obj.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
				reachedTypes = append(reachedTypes, tn)
				for _, fn := range g.methods[tn] {
					if implicit[fn.Name()] {
						reach(fn)
					}
				}
			}
		}
		for ti, tn := range reachedTypes {
			for ci, c := range calls {
				if tried[[2]int{ti, ci}] {
					continue
				}
				tried[[2]int{ti, ci}] = true
				if m := implementation(tn, c); m != nil {
					reach(m)
				}
			}
		}
	}
	var dead []string
	for obj, n := range g.decls {
		if n.checked && !reached[obj] {
			dead = append(dead, n.key)
		}
	}
	sort.Strings(dead)
	return dead
}

// implementation returns the method of tn (or of a type it embeds) that a
// call of c.name on an interface holding a tn or *tn reaches, or nil. A
// generic type is matched by method name alone.
func implementation(tn *types.TypeName, c ifaceMethod) types.Object {
	named := types.Unalias(tn.Type()).(*types.Named)
	ptr := types.NewPointer(named)
	if named.TypeParams().Len() == 0 && !types.Implements(ptr, c.iface) {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(ptr, false, tn.Pkg(), c.name)
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}
