// Package driver loads type-checked packages and runs unionlint
// analyzers over them. Analyze is the one walk: it lists the module's
// packages and their test compilations with `go list -test -deps
// -export`, type-checks each from source against the compiler's export
// data for its imports (no source re-typechecking of dependencies),
// and runs the analyzers in dependency order over one in-memory fact
// store. A full-repo run stays around a second once the build cache is
// warm.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
)

// ExportLookup resolves an import path to a reader of gc export data.
type ExportLookup func(path string) (io.ReadCloser, error)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Deps lists the transitive import paths of the package (from
	// `go list -deps`, test-variant suffixes stripped), used to scope
	// fact visibility.
	Deps []string
	// ForTest names the package under test when this is one of its
	// test compilations ("p [p.test]" or "p_test [p.test]"); empty
	// otherwise.
	ForTest string
}

// ParseFiles parses the named Go files into fset, keeping comments
// (annotations and unionlint:allow suppressions live there).
func ParseFiles(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// TypeCheck type-checks files as package path, resolving imports
// through lookup.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, lookup ExportLookup) (*Package, error) {
	imp := unsafeAware{importer.ForCompiler(fset, "gc", importer.Lookup(lookup))}
	return TypeCheckImporter(fset, path, files, imp)
}

// TypeCheckImporter is TypeCheck with a caller-supplied types.Importer,
// for loaders (analysistest) that resolve some imports from source.
func TypeCheckImporter(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := cfg.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// unsafeAware short-circuits the magic "unsafe" package, which has no
// export data on disk.
type unsafeAware struct{ base types.Importer }

func (i unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.base.Import(path)
}

// FileLookup builds an ExportLookup over an importPath→exportFile map,
// with an optional importMap applied first (go list uses it to point a
// test compilation's imports at their test variants).
func FileLookup(importMap, packageFile map[string]string) ExportLookup {
	return func(path string) (io.ReadCloser, error) {
		if canon, ok := importMap[path]; ok && canon != "" {
			path = canon
		}
		file, ok := packageFile[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}
