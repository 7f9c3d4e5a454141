// Package lockedpkg is the guarded-field golden package.
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

// SpawnLocked reads a guarded field in a goroutine. The rule is per
// declaration, so the declaration's own lock covers the literal: fine.
func (r *Registry) SpawnLocked() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() { _ = r.count }()
}

// SpawnBad reads a guarded field in a goroutine, and nothing in the
// declaration locks mu.
func (r *Registry) SpawnBad() {
	go func() { _ = r.count }() // want "Registry.count is guarded by Registry.mu"
}

// SpawnLocks locks mu only inside its goroutine; a lock anywhere in the
// declaration covers its accesses: fine.
func (r *Registry) SpawnLocks() int {
	go func() {
		r.mu.Lock()
		r.count++
		r.mu.Unlock()
	}()
	return len(r.names)
}

// DeferLocked touches a guarded field in a deferred literal, under the
// declaration's lock: fine.
func (r *Registry) DeferLocked() {
	r.mu.Lock()
	defer func() {
		r.count++
		r.mu.Unlock()
	}()
}

// DeferBad touches a guarded field in a deferred literal, and nothing
// in the declaration locks mu.
func (r *Registry) DeferBad() {
	defer func() { r.count = 0 }() // want "Registry.count is guarded by Registry.mu"
}

// Free touches only an unguarded field: fine.
func (r *Registry) Free() int { return r.free }

// Table reaches registries through a guarded map.
type Table struct {
	mu   sync.Mutex // guards: rows
	rows map[string]*Registry
}

// LockRow reads the guarded map in mutex operations, call receivers
// of defer and go, and a select case, without locking Table.mu.
func (t *Table) LockRow(k string, ch chan int) {
	t.rows[k].mu.Lock()         // want "Table.rows is guarded by Table.mu"
	defer t.rows[k].mu.Unlock() // want "Table.rows is guarded by Table.mu"
	defer t.rows[k].Free()      // want "Table.rows is guarded by Table.mu"
	go t.rows[k].Free()         // want "Table.rows is guarded by Table.mu"
	select {
	case ch <- len(t.rows): // want "Table.rows is guarded by Table.mu"
	default:
	}
}

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
