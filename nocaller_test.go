package resilience

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
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
	"internal/sparse.WriteMatrixMarket":    "test oracle: round trip of the Matrix Market reader",
	"internal/vec.Dist2":                   "test oracle: distance of a solution from the reference one",
	"internal/matgen.Laplacian1D":          "test oracle: the smallest SPD system with a known spectrum",
	"internal/obs.ValidateChromeTrace":     "check code: schema check of every Chrome trace the tests write",
	"internal/obs.BucketLower":             "test oracle: histogram bucket bounds",
	"internal/chaos.ReadCorpus":            "check code: reads the distilled chaos corpus the tests replay",
	"internal/core.System.BaselineRuns":    "check code: counts fault-free runs for the shared-baseline gate",
	"internal/model.PredictFF":             "planned caller: the model-versus-simulation gate (ROADMAP item 1)",
	"internal/model.PredictESR":            "planned caller: the model-versus-simulation gate (ROADMAP item 1)",
	"internal/model.PredictLCR":            "planned caller: the model-versus-simulation gate (ROADMAP item 1)",
}

// implicitMethods are method names the standard library calls through an
// interface (fmt, errors, encoding/json, net/http, sort, io), so a method
// of that name is reached without a selector naming it.
var implicitMethods = []string{
	"Error", "String", "Unwrap", "MarshalJSON", "UnmarshalJSON", "ServeHTTP",
	"Len", "Less", "Swap", "Read", "Write", "Close",
}

// TestEveryDeclarationHasACaller fails when a top-level declaration under
// internal/ or cmd/ is reached from no program: no non-test code names it,
// or only code that is itself unreached does. The programs are the
// commands, the examples, the benchmark (bench/) and the public facade in
// the repository root; their declarations are the roots, as are init
// functions, blank declarations and noCallerAllowed. Names resolve by
// package and identifier only (no type checking), and a method counts as
// reached when its type is and any reached code selects a method of that
// name, so the check can miss dead code but does not flag live code.
func TestEveryDeclarationHasACaller(t *testing.T) {
	g := &declGraph{fset: token.NewFileSet(), decls: map[string]*declNode{}, byMethod: map[string][]string{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		return g.addFile(path)
	})
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
	fset  *token.FileSet
	decls map[string]*declNode
	// byMethod maps a method name to the keys of all methods so named.
	byMethod map[string][]string
	roots    []string
}

type declNode struct {
	checked  bool     // under internal/ or cmd/
	recv     string   // receiver type key, for methods
	refs     []string // keys of the package-level declarations it names
	selected []string // selector names, any of which may name a method
}

func (g *declGraph) addFile(path string) error {
	f, err := parser.ParseFile(g.fset, path, nil, 0)
	if err != nil {
		return err
	}
	dir := filepath.ToSlash(filepath.Dir(path))
	checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			return err
		}
		local := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = strings.TrimPrefix(p, "resilience/")
	}
	add := func(name *ast.Ident, n ast.Node, recv string) {
		key := dir + "." + name.Name
		if recv != "" {
			key = recv + "." + name.Name
			g.byMethod[name.Name] = append(g.byMethod[name.Name], key)
		} else if name.Name == "init" || name.Name == "_" {
			// A package may hold several, and all of them run.
			key += "@" + g.fset.Position(name.Pos()).String()
			g.roots = append(g.roots, key)
		}
		if !checked || key == dir+".main" {
			g.roots = append(g.roots, key)
		}
		node := &declNode{checked: checked, recv: recv}
		node.collect(n, dir, imports)
		g.decls[key] = node
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = dir + "." + recvName(d.Recv.List[0].Type)
			}
			add(d.Name, d, recv)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s, "")
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, s, "")
					}
				}
			}
		}
	}
	return nil
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collect records what the declaration n refers to: identifiers, taken as
// names in its own package dir; qualified names of imported packages; and
// selector and interface method names, taken as method names.
func (d *declNode) collect(n ast.Node, dir string, imports map[string]string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					d.refs = append(d.refs, p+"."+x.Sel.Name)
					return false
				}
			}
			d.selected = append(d.selected, x.Sel.Name)
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					d.selected = append(d.selected, name.Name)
				}
			}
		case *ast.Ident:
			d.refs = append(d.refs, dir+"."+x.Name)
		}
		return true
	})
}

// unreached walks the graph from the roots and the keys of kept, and
// returns the sorted keys of the checked declarations it never reaches.
func (g *declGraph) unreached(kept map[string]string) []string {
	reached := map[string]bool{}
	var queue []string
	reach := func(key string) {
		if g.decls[key] != nil && !reached[key] {
			reached[key] = true
			queue = append(queue, key)
		}
	}
	for _, key := range g.roots {
		reach(key)
	}
	for key := range kept {
		reach(key)
	}
	selected := map[string]bool{}
	for _, m := range implicitMethods {
		selected[m] = true
	}
	// Walk the references, then reach the methods of reached types whose
	// names reached code selects; repeat until nothing new is reached.
	for len(queue) > 0 {
		for len(queue) > 0 {
			n := g.decls[queue[0]]
			queue = queue[1:]
			for _, r := range n.refs {
				reach(r)
			}
			for _, s := range n.selected {
				selected[s] = true
			}
		}
		for m := range selected {
			for _, key := range g.byMethod[m] {
				if reached[g.decls[key].recv] {
					reach(key)
				}
			}
		}
	}
	var dead []string
	for key, n := range g.decls {
		if n.checked && !reached[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	return dead
}
