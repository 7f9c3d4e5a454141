// Package ann exercises the allocflow annotation grammar: reasoned
// allocflow:amortized and allocflow:cold annotations suppress
// findings, bare ones are findings themselves.
package ann

// Buf is a growable buffer with hot push/lookup paths.
type Buf struct {
	data []uint64
	n    int
}

// Push grows by doubling: the append is reviewed-amortized, so it is
// not a finding (but stays in the summary for runtime ceilings).
//
// hotpath: called once per stream item.
func (b *Buf) Push(v uint64) {
	// allocflow:amortized doubling growth, O(1) amortized per push
	b.data = append(b.data, v)
	b.n++
}

// PushBare has the same append but a bare annotation: the annotation
// itself is a finding, and it covers nothing, so the append is
// reported too.
//
// hotpath: called once per stream item.
func (b *Buf) PushBare(v uint64) {
	/* allocflow:amortized */ b.data = append(b.data, v) // want "bare allocflow:amortized annotation" "1 append site"
}

// Repair is hot but its allocation sits on a reviewed-cold branch:
// the statement is pruned from the summary entirely.
//
// hotpath: called once per stream item.
func (b *Buf) Repair(v uint64) bool {
	if b.n > cap(b.data) {
		// allocflow:cold repair path reached only after corruption
		b.data = make([]uint64, b.n)
	}
	return b.n > 0
}

// RepairBare is the same shape with a bare cold annotation: finding
// plus the unpruned make.
//
// hotpath: called once per stream item.
func (b *Buf) RepairBare(v uint64) bool {
	if b.n > cap(b.data) {
		/* allocflow:cold */ b.data = make([]uint64, b.n) // want "bare allocflow:cold annotation" "1 make site"
	}
	return b.n > 0
}

// table is built on first use by Lookup's lazy init.
type table struct{ slots [256]uint64 }

// newTable allocates; its composite site is inherited by its callers.
func newTable() *table { return &table{} }

// Lazy builds its table on first use: the amortized annotation on the
// call covers the site newTable contributes, so it is not a finding.
//
// hotpath: called once per stream item.
func (b *Buf) Lazy(t **table, v uint64) uint64 {
	if *t == nil {
		// allocflow:amortized built once, on first use
		*t = newTable()
	}
	return (*t).slots[v%256]
}

// LazyUnannotated is the same lazy init without the annotation: the
// inherited composite is reported.
//
// hotpath: called once per stream item.
func (b *Buf) LazyUnannotated(t **table, v uint64) uint64 {
	if *t == nil {
		*t = newTable() // want "1 composite site"
	}
	return (*t).slots[v%256]
}
