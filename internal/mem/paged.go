package mem

// Paged is a page-granular sparse table keyed by small dense indices —
// word numbers (WordIndex) or line numbers — built for serving-scale
// footprints: a 10⁶+-line address span where a cell touches only a
// sliver of it. A flat slice would grow to the maximum index ever
// touched, so one stray access at index 2²⁴ would allocate (and later
// make the collector walk) the whole prefix. Paged allocates fixed-size
// pages lazily on first write, so the heap tracks the *touched* pages,
// not the address span, and teardown/GC cost does too.
//
// Pages never move once allocated, so a pointer returned by Slot stays
// valid across later growth.
//
// Dirty pages are tracked the same way the cache hierarchy tracks dirty
// replacement-state sets (cache.level dirtyBits/dirtySets): Slot/Store
// record the page on first mutation since the last Reset, and Reset
// clears exactly those pages — reset-to-pristine in O(touched), keeping
// the page allocations for reuse.
//
// The zero Paged is empty and ready to use. Its property tests pin it
// against a flat slice-backed table (Dense, in dense_test.go).
type Paged[T any] struct {
	pages []*pageOf[T]
	dirty []int32 // indices of pages mutated since the last Reset
}

// Page geometry: 4096 entries per page. At 8-byte entries a page is
// 32 KiB — big enough that spine overhead is negligible, small enough
// that a sparse workload pays for little untouched space around each
// touched index.
const (
	pageShift = 12
	// PageEntries is the number of table entries per page.
	PageEntries = 1 << pageShift
	pageMask    = PageEntries - 1

	// maxPageIndex bounds the page spine: a sparse-key bug (an address
	// computed from corrupt data) fails loudly instead of allocating an
	// enormous spine. 2²⁶ pages cover indices up to 2³⁸ — far past any
	// simulated footprint.
	maxPageIndex = 1 << 26
)

// pageOf is one allocated page plus its dirty mark. The mark lives with
// the page so the Slot fast path touches one cache line for both.
type pageOf[T any] struct {
	dirty bool
	v     [PageEntries]T
}

// Load returns the value at index i, or the zero value when i was never
// stored. It never allocates: reading an absent page leaves it absent.
func (p *Paged[T]) Load(i uint64) T {
	pi := i >> pageShift
	if pi < uint64(len(p.pages)) {
		if pg := p.pages[pi]; pg != nil {
			return pg.v[i&pageMask]
		}
	}
	var zero T
	return zero
}

// Slot returns a pointer to the value at index i, allocating the page on
// first touch. The pointer stays valid across later growth (pages never
// move). The page is marked dirty: Reset will clear it.
func (p *Paged[T]) Slot(i uint64) *T {
	pi := i >> pageShift
	var pg *pageOf[T]
	if pi < uint64(len(p.pages)) {
		pg = p.pages[pi]
	}
	if pg == nil {
		pg = p.grow(pi)
	}
	if !pg.dirty {
		pg.dirty = true
		p.dirty = append(p.dirty, int32(pi))
	}
	return &pg.v[i&pageMask]
}

// Store sets the value at index i, allocating the page on first touch.
func (p *Paged[T]) Store(i uint64, x T) { *p.Slot(i) = x }

// grow extends the spine to cover page pi and allocates the page.
func (p *Paged[T]) grow(pi uint64) *pageOf[T] {
	if pi >= maxPageIndex {
		panic("mem: Paged index exceeds the address-space bound — a sparse-key bug in the workload, not a footprint limit")
	}
	if pi >= uint64(len(p.pages)) {
		if pi < uint64(cap(p.pages)) {
			p.pages = p.pages[:pi+1]
		} else {
			n := uint64(cap(p.pages)) * 2
			if n < 64 {
				n = 64
			}
			for n <= pi {
				n *= 2
			}
			spine := make([]*pageOf[T], n)
			copy(spine, p.pages)
			p.pages = spine[:pi+1]
		}
	}
	pg := &pageOf[T]{}
	p.pages[pi] = pg
	return pg
}

// Reset returns the table to pristine (every Load yields the zero value)
// in O(pages touched since the last Reset), keeping page allocations for
// reuse — the cache.dirtySets pattern at page granularity.
func (p *Paged[T]) Reset() {
	for _, pi := range p.dirty {
		pg := p.pages[pi]
		clear(pg.v[:])
		pg.dirty = false
	}
	p.dirty = p.dirty[:0]
}

// Range calls f for every slot of every allocated page in ascending
// index order — deterministic by construction, with the absent pages
// skipped. Entries in never-touched pages hold the zero
// value and are not visited; callers already treat zero entries as
// absent. The *T argument aliases the table slot.
func (p *Paged[T]) Range(f func(i uint64, v *T)) {
	for pi, pg := range p.pages {
		if pg == nil {
			continue
		}
		base := uint64(pi) << pageShift
		for j := range pg.v {
			f(base+uint64(j), &pg.v[j])
		}
	}
}

// Pages returns the number of allocated pages — the footprint metric the
// serving-scale tests assert on (heap ∝ touched pages, not address
// span).
func (p *Paged[T]) Pages() int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// DirtyPages returns the number of pages mutated since the last Reset —
// the exact cost of the next Reset, exposed so tests can pin the
// O(touched) bound.
func (p *Paged[T]) DirtyPages() int {
	return len(p.dirty)
}
