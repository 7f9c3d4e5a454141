package driver

import (
	"fmt"
	"go/types"
	"maps"
	"reflect"
	"sort"
	"sync"

	"repro/internal/analysis"
)

// A FactStore accumulates the facts exported by analyzer passes and
// serves them back to later passes, keyed by (package, object, fact
// type). Analyze keeps one store for the module's non-test packages
// and hands each package a View restricted to its transitive imports;
// each package's test compilations work in a clone, so facts about
// test files never reach another package.
type FactStore struct {
	mu    sync.Mutex
	facts map[factKey]analysis.Fact
}

type factKey struct {
	pkg string // import path, test-variant suffix stripped
	obj string // object path; "" for package facts
	typ reflect.Type
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey]analysis.Fact{}}
}

// clone returns a store holding the same facts, whose later exports
// do not reach s.
func (s *FactStore) clone() *FactStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &FactStore{facts: maps.Clone(s.facts)}
}

// set validates and records one fact.
func (s *FactStore) set(key factKey, fact analysis.Fact) error {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		return fmt.Errorf("fact %T is not a pointer to a struct", fact)
	}
	s.mu.Lock()
	s.facts[key] = fact
	s.mu.Unlock()
	return nil
}

// get copies the stored fact for key's (pkg, obj, type-of-dst) into
// dst, reporting whether one existed.
func (s *FactStore) get(pkg, obj string, dst analysis.Fact) bool {
	key := factKey{pkg, obj, reflect.TypeOf(dst)}
	s.mu.Lock()
	src, ok := s.facts[key]
	s.mu.Unlock()
	if !ok {
		return false
	}
	// Copy so the caller cannot mutate the stored fact in place.
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

// View binds the store to one pass: exports attach to pkg, and imports
// are restricted to visible import paths (plus pkg itself).
func (s *FactStore) View(pkg *types.Package, visible map[string]bool) analysis.FactContext {
	return &storeView{store: s, pkg: pkg, visible: visible}
}

type storeView struct {
	store   *FactStore
	pkg     *types.Package
	visible map[string]bool
}

func (v *storeView) selfPath() string {
	return analysis.TrimPkgPath(v.pkg.Path())
}

func (v *storeView) canSee(path string) bool {
	return v.visible[path] || path == v.selfPath()
}

func (v *storeView) ImportPackageFact(path string, fact analysis.Fact) bool {
	path = analysis.TrimPkgPath(path)
	if !v.canSee(path) {
		return false
	}
	return v.store.get(path, "", fact)
}

func (v *storeView) ExportPackageFact(fact analysis.Fact) {
	key := factKey{v.selfPath(), "", reflect.TypeOf(fact)}
	if err := v.store.set(key, fact); err != nil {
		panic(fmt.Sprintf("ExportPackageFact(%s): %v", key.pkg, err))
	}
}

func (v *storeView) ImportObjectFact(obj types.Object, fact analysis.Fact) bool {
	path, objPath, ok := v.keyFor(obj)
	if !ok || !v.canSee(path) {
		return false
	}
	return v.store.get(path, objPath, fact)
}

func (v *storeView) ExportObjectFact(obj types.Object, fact analysis.Fact) {
	path, objPath, ok := v.keyFor(obj)
	if !ok {
		panic(fmt.Sprintf("ExportObjectFact: no object path for %v", obj))
	}
	if path != v.selfPath() {
		panic(fmt.Sprintf("ExportObjectFact: %v belongs to %s, not the package under analysis (%s)",
			obj, path, v.selfPath()))
	}
	if err := v.store.set(factKey{path, objPath, reflect.TypeOf(fact)}, fact); err != nil {
		panic(fmt.Sprintf("ExportObjectFact(%s.%s): %v", path, objPath, err))
	}
}

func (v *storeView) keyFor(obj types.Object) (pkgPath, objPath string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	objPath, ok = analysis.ObjectPath(obj)
	if !ok {
		return "", "", false
	}
	return analysis.TrimPkgPath(obj.Pkg().Path()), objPath, true
}

func (v *storeView) AllPackageFacts() []analysis.PackageFact {
	v.store.mu.Lock()
	var out []analysis.PackageFact
	for k, f := range v.store.facts {
		if k.obj == "" && v.canSee(k.pkg) {
			out = append(out, analysis.PackageFact{Path: k.pkg, Fact: f})
		}
	}
	v.store.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return fmt.Sprintf("%T", out[i].Fact) < fmt.Sprintf("%T", out[j].Fact)
	})
	return out
}

func (v *storeView) AllObjectFacts() []analysis.ObjectFact {
	return v.store.objectFacts(v.canSee)
}

// ObjectFacts returns every object fact in the store, in deterministic
// order.
func (s *FactStore) ObjectFacts() []analysis.ObjectFact {
	return s.objectFacts(func(string) bool { return true })
}

func (s *FactStore) objectFacts(visible func(pkg string) bool) []analysis.ObjectFact {
	s.mu.Lock()
	var out []analysis.ObjectFact
	for k, f := range s.facts {
		if k.obj != "" && visible(k.pkg) {
			out = append(out, analysis.ObjectFact{Path: k.pkg, Object: k.obj, Fact: f})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return fmt.Sprintf("%T", out[i].Fact) < fmt.Sprintf("%T", out[j].Fact)
	})
	return out
}
