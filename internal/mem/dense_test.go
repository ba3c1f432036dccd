package mem

import "testing"

// Dense is a flat table keyed by small dense indices — word numbers
// (WordIndex) or line numbers: a slice indexed directly by word/line
// number, grown to the maximum index ever touched. It is the obviously
// correct model the paged store is pinned against (TestPagedDifferential,
// TestPagedRangeMatchesReference).
//
// The zero Dense is empty and ready to use. Load of an index never
// stored returns the zero value, like a map read; Slot grows the table.
type Dense[T any] struct {
	v []T
}

// Load returns the value at index i, or the zero value when i was never
// stored.
func (d *Dense[T]) Load(i uint64) T {
	if i < uint64(len(d.v)) {
		return d.v[i]
	}
	var zero T
	return zero
}

// Slot returns a pointer to the value at index i, growing the table as
// needed. The pointer is invalidated by the next growing Slot call.
func (d *Dense[T]) Slot(i uint64) *T {
	if i >= uint64(len(d.v)) {
		d.grow(i)
	}
	return &d.v[i]
}

// Store sets the value at index i, growing the table as needed.
func (d *Dense[T]) Store(i uint64, x T) { *d.Slot(i) = x }

// Reset clears every stored value, keeping the grown storage.
func (d *Dense[T]) Reset() { clear(d.v) }

// MaxDenseEntries bounds Dense growth: doubling to an arbitrary maximum
// index would silently allocate the whole address-space prefix, so a
// sparse-key bug fails loudly instead.
const MaxDenseEntries = 1 << 26

func (d *Dense[T]) grow(i uint64) {
	if i >= MaxDenseEntries {
		panic("mem: Dense index exceeds MaxDenseEntries")
	}
	n := uint64(cap(d.v)) * 2
	if n < 1024 {
		n = 1024
	}
	for n <= i {
		n *= 2
	}
	nv := make([]T, n)
	copy(nv, d.v)
	d.v = nv
}

// Slice exposes the backing storage for iteration (index = key). Unlike
// a map range, iteration order is the key order, deterministic by
// construction; most entries are zero values and must be skipped.
func (d *Dense[T]) Slice() []T { return d.v }

// TestDenseBound checks Dense growth fails loudly instead of allocating
// the whole address-space prefix.
func TestDenseBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dense.Slot beyond MaxDenseEntries did not panic")
		}
	}()
	var d Dense[uint64]
	d.Slot(MaxDenseEntries)
}
