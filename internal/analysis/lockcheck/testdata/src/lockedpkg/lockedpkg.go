// Package lockedpkg is the lockcheck golden package.
package lockedpkg

import "sync"

// Registry mirrors the coordinator's shape: a mutex with a documented
// guard list over sibling fields, plus an unguarded field.
type Registry struct {
	mu sync.Mutex // guards: count, names

	count int
	names []string

	free int // not guarded
}

// Inc locks the declared mutex: fine.
func (r *Registry) Inc() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
}

// Snapshot locks around a multi-field read: fine.
func (r *Registry) Snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Bad touches a guarded field with no lock and no annotation.
func (r *Registry) Bad() int {
	return r.count // want "Registry.count is guarded by Registry.mu"
}

// BadClosure shows nested function literals are checked too.
func (r *Registry) BadClosure() func() int {
	return func() int { return r.count } // want "Registry.count is guarded by Registry.mu"
}

// incLocked declares its callers hold mu.
//
// locked: mu
func (r *Registry) incLocked() {
	r.count++
}

// nameCount declares its callers hold every relevant mutex.
//
// locked:
func (r *Registry) nameCount() int { return len(r.names) }

// Free touches only an unguarded field: fine.
func (r *Registry) Free() int { return r.free }

// Stale has a guard list naming a field that no longer exists.
type Stale struct {
	// guards: gone
	mu sync.Mutex // want "not a field of Stale"

	kept int
}

// NotMutex puts the annotation on a non-mutex field.
type NotMutex struct {
	// guards: x
	lock int // want "must sit on a single sync.Mutex/sync.RWMutex field"

	x int
}

// BareNotMutex puts a bare annotation (a mutex guarding no sibling
// field, which lockorder still tracks) on a non-mutex field.
type BareNotMutex struct {
	// guards:
	barrier int // want "must sit on a single sync.Mutex/sync.RWMutex field"
}

// RW shows RWMutex and RLock are understood.
type RW struct {
	mu sync.RWMutex // guards: data

	data map[string]int
}

// Get read-locks: fine.
func (r *RW) Get(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.data[k]
}
