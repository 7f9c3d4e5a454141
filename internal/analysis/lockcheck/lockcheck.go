// Package lockcheck enforces documented mutex protection: a struct
// field listed in a mutex's `// guards:` comment may only be touched
// inside functions that visibly lock that mutex, or that declare the
// caller holds it.
//
// The concurrent coordinator (internal/server) is only bit-identical
// to serial merging because every access to a merge group's state
// happens under its group mutex; the invariant lives in comments the
// compiler cannot read. lockcheck reads them. Grammar:
//
//	mu sync.Mutex // guards: groups, ln, conns
//
// on a sync.Mutex/sync.RWMutex field declares which sibling fields it
// protects (names must be fields of the same struct — a rename that
// orphans the list is itself a diagnostic). A function that accesses a
// guarded field must either contain a call to <x>.<mu>.Lock or
// <x>.<mu>.RLock somewhere in its body, or carry a
//
//	// locked: mu
//
// doc-comment line declaring that its callers hold the named
// mutex(es) (a bare `// locked:` covers all mutexes of the package).
//
// This is a lexical, per-function check, not an alias or path
// analysis: locking any instance's mutex satisfies accesses through
// any value of that struct type, and nested function literals are
// checked as part of their enclosing declaration. It will not catch
// every misuse — it exists to catch the easy, common one: a new code
// path reading s.groups without s.mu. _test.go files are skipped.
package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "accesses to `// guards:`-annotated fields must hold the declared mutex",
	Run:  run,
}

// guardInfo describes one guarded field.
type guardInfo struct {
	structName string
	mutexName  string // sibling mutex field protecting it
}

func run(pass *analysis.Pass) error {
	guarded := map[*types.Var]guardInfo{} // guarded field object → info
	mutexes := map[*types.Var]string{}    // mutex field object → struct name

	// Pass 1: collect `// guards:` annotations from struct types.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			collectGuards(pass, ts.Name.Name, st, guarded, mutexes)
			return true
		})
	}
	if len(guarded) == 0 {
		return nil
	}

	// Pass 2: check every function declaration.
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, guarded, mutexes)
		}
	}
	return nil
}

// collectGuards parses guards: comments on the fields of one struct.
func collectGuards(pass *analysis.Pass, structName string, st *ast.StructType,
	guarded map[*types.Var]guardInfo, mutexes map[*types.Var]string) {

	// Index the struct's fields by name so guard lists can be
	// validated against them.
	fieldByName := map[string]*types.Var{}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				fieldByName[name.Name] = v
			}
		}
	}
	for _, f := range st.Fields.List {
		names := ParseGuardList(f)
		if names == nil {
			continue
		}
		if len(f.Names) != 1 || !IsMutex(pass.TypesInfo.Defs[f.Names[0]]) {
			pass.Reportf(f.Pos(), "guards: annotation must sit on a single sync.Mutex/sync.RWMutex field")
			continue
		}
		mutexName := f.Names[0].Name
		mutexes[fieldByName[mutexName]] = structName
		for _, g := range names {
			v, ok := fieldByName[g]
			if !ok {
				pass.Reportf(f.Pos(), "guards: lists %q, which is not a field of %s (stale annotation after a rename?)", g, structName)
				continue
			}
			guarded[v] = guardInfo{structName: structName, mutexName: mutexName}
		}
	}
}

// ParseGuardList extracts the field names from a `// guards: a, b`
// comment attached to field f (doc or trailing). It returns nil when f
// carries no guards: comment, and an empty non-nil slice for a bare
// `// guards:`, which marks a mutex that guards no sibling field (a
// barrier such as the WAL seal) but is still tracked by lockorder.
func ParseGuardList(f *ast.Field) []string {
	var names []string
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "guards:")
			if !ok {
				continue
			}
			if names == nil {
				names = []string{}
			}
			for _, n := range strings.Split(rest, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
		}
	}
	return names
}

// IsMutex reports whether obj is a field of type sync.Mutex or
// sync.RWMutex.
func IsMutex(obj types.Object) bool {
	if obj == nil {
		return false
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" &&
		(o.Name() == "Mutex" || o.Name() == "RWMutex")
}

// checkFunc verifies one function's guarded-field accesses.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl,
	guarded map[*types.Var]guardInfo, mutexes map[*types.Var]string) {

	heldAll, heldNames := ParseLockedAnnotation(fd)

	// Which mutexes does the body visibly lock?
	locked := map[string]bool{} // "struct.mutex"
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := pass.TypesInfo.Selections[inner]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				if structName, ok := mutexes[v]; ok {
					locked[structName+"."+v.Name()] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok {
			return true
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		info, ok := guarded[v]
		if !ok {
			return true
		}
		key := info.structName + "." + info.mutexName
		if locked[key] {
			return true
		}
		if heldAll || heldNames[info.mutexName] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s.%s is guarded by %s.%s, but %s neither locks it nor declares `// locked: %s`",
			info.structName, v.Name(), info.structName, info.mutexName, funcName(fd), info.mutexName)
		return true
	})
}

// ParseLockedAnnotation reads a `// locked:` doc-comment line: a bare
// annotation means callers hold every relevant mutex; otherwise the
// comma-separated mutex field names are held.
func ParseLockedAnnotation(fd *ast.FuncDecl) (all bool, names map[string]bool) {
	names = map[string]bool{}
	if fd.Doc == nil {
		return false, names
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, "locked:")
		if !ok {
			continue
		}
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return true, names
		}
		for _, n := range strings.Split(rest, ",") {
			n = strings.TrimSpace(n)
			// Tolerate a trailing free-text reason after the names:
			// take the first identifier-looking token of each part.
			if i := strings.IndexAny(n, " \t"); i >= 0 {
				n = n[:i]
			}
			if n != "" {
				names[n] = true
			}
		}
	}
	return false, names
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}
