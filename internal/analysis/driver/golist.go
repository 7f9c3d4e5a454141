package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// listedPackage is the slice of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	ForTest    string // set on test variants: the package under test
	Standard   bool
	Export     string
	GoFiles    []string
	Deps       []string          // transitive import paths
	ImportMap  map[string]string // import path → variant, in test variants
	Module     *struct{ Path, Dir string }
}

// GoList runs `go list -deps -export -json` in dir and decodes the
// package stream; args are extra go list flags followed by package
// patterns. Export data is compiled (from cache) as a side effect, so
// every dependency can be imported without source re-typechecking.
func GoList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,ForTest,Standard,Export,GoFiles,Deps,ImportMap,Module"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("go list: decoding output: %v (stderr: %s)", err, stderr.String())
		}
		pkgs = append(pkgs, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	return pkgs, nil
}

// ExportMap extracts importPath→exportFile from a listed package set.
func ExportMap(pkgs []*listedPackage) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}

// loadModulePackages loads, parses and type-checks every package
// matched by patterns that belongs to the enclosing module (identified
// from dir's go.mod), together with its test compilations: the
// internal test variant "p [p.test]" (p's files plus its _test.go
// files) and the external test package "p_test [p.test]". Dependencies
// that go list recompiles for a test ("q [p.test]") and the generated
// "p.test" mains are skipped; their sources are analyzed as q and not
// at all, respectively.
//
// Non-test packages come first, in dependency order (every package
// after all of its imports), so a driver analyzing them in sequence
// sees facts from a package's imports before reaching the package
// itself; sorting by transitive-dep count achieves that, since an
// importer always has a strictly larger dependency closure than each
// of its imports. Test variants follow, grouped per package under
// test, the internal variant before the external package that imports
// it. With tests false the test compilations are left out.
func loadModulePackages(dir string, tests bool, patterns ...string) ([]*Package, error) {
	modRoot, modPath, err := FindModule(dir)
	if err != nil {
		return nil, err
	}
	if tests {
		patterns = append([]string{"-test"}, patterns...)
	}
	listed, err := GoList(modRoot, patterns...)
	if err != nil {
		return nil, err
	}
	exports := ExportMap(listed)
	var inModule []*listedPackage
	for _, lp := range listed {
		if lp.Standard || lp.Module == nil || lp.Module.Path != modPath || len(lp.GoFiles) == 0 {
			continue
		}
		if lp.ForTest == "" && lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue // generated test main
		}
		if base := analysis.TrimPkgPath(lp.ImportPath); lp.ForTest != "" && base != lp.ForTest && base != lp.ForTest+"_test" {
			continue // dependency recompiled for a test
		}
		inModule = append(inModule, lp)
	}
	sort.SliceStable(inModule, func(i, j int) bool {
		a, b := inModule[i], inModule[j]
		if a.ForTest != b.ForTest {
			return a.ForTest < b.ForTest
		}
		return len(a.Deps) < len(b.Deps)
	})
	var out []*Package
	for _, lp := range inModule {
		fset := token.NewFileSet()
		var filenames []string
		for _, f := range lp.GoFiles {
			filenames = append(filenames, filepath.Join(lp.Dir, f))
		}
		files, err := ParseFiles(fset, filenames)
		if err != nil {
			return nil, err
		}
		pkg, err := TypeCheck(fset, lp.ImportPath, files, FileLookup(lp.ImportMap, exports))
		if err != nil {
			return nil, err
		}
		pkg.ForTest = lp.ForTest
		for _, d := range lp.Deps {
			pkg.Deps = append(pkg.Deps, analysis.TrimPkgPath(d))
		}
		out = append(out, pkg)
	}
	return out, nil
}

// FindModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			return dir, modulePath(data), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range bytes.Split(gomod, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if rest, ok := bytes.CutPrefix(line, []byte("module")); ok {
			return string(bytes.Trim(bytes.TrimSpace(rest), `"`))
		}
	}
	return ""
}
