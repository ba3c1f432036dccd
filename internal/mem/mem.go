// Package mem defines the simulated physical address space of the machine
// and the mvmalloc-style allocator the SI-TM paper exposes to applications
// (§3, §4.4).
//
// The geometry matches the paper's hardware: 64-byte cache lines holding
// eight 64-bit words. Conflict detection, versioning and cache modelling all
// operate at line granularity; data accesses operate at word granularity.
package mem

// Addr is a simulated byte address. Address 0 is reserved as the nil
// pointer for transactional data structures.
type Addr uint64

// Line identifies a 64-byte cache line (Addr >> 6).
type Line uint64

// Geometry of the simulated memory system.
const (
	WordBytes    = 8                     // one 64-bit word
	LineBytes    = 64                    // one cache line
	WordsPerLine = LineBytes / WordBytes // 8
	lineShift    = 6
	wordShift    = 3
)

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> lineShift) }

// WordOf returns the word index of a within its line, in [0, WordsPerLine).
func WordOf(a Addr) int { return int(a>>wordShift) & (WordsPerLine - 1) }

// WordIndex returns a's global word number (Addr >> 3). It is the natural
// key for word-granular side tables: simulated addresses come from the
// bump allocator, so word numbers are small and dense.
func WordIndex(a Addr) uint64 { return uint64(a) >> wordShift }

// WordAddr returns the word-aligned address of word w within line l.
func WordAddr(l Line, w int) Addr { return Addr(l)<<lineShift | Addr(w)<<wordShift }

// Base returns the address of the first byte of line l.
func (l Line) Base() Addr { return Addr(l) << lineShift }

// Allocator hands out simulated memory. It models the paper's mvmalloc():
// a conventional heap manager over the multiversioned partition (§4.4,
// "it can be administered by a conventional heap manager") whose
// version-list entries are installed on allocation and whose data lines
// are populated on first write (§3). Allocation is a bump pointer plus
// size-segregated free lists for line-aligned blocks; address 0 is never
// handed out.
type Allocator struct {
	next Addr
	// free holds returned line-aligned blocks, segregated by size in
	// lines. Freeing is non-transactional, like the paper's allocator:
	// the data structures free() nodes only on committed removals.
	free map[int][]Addr
}

// NewAllocator returns an allocator whose first allocation starts at one
// full line past address zero, keeping 0 usable as a nil pointer.
func NewAllocator() *Allocator {
	return &Allocator{next: LineBytes, free: make(map[int][]Addr)}
}

// Alloc reserves nWords contiguous 64-bit words and returns the address of
// the first. Allocations are word-aligned.
func (a *Allocator) Alloc(nWords int) Addr {
	if nWords <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	p := a.next
	a.next += Addr(nWords * WordBytes)
	return p
}

// AllocLines reserves nLines full cache lines, line-aligned, and returns
// the base address, reusing freed blocks of the same size when available.
// Line-aligned allocation is how workloads avoid false sharing between
// unrelated objects (§6.1 evaluates at line granularity).
func (a *Allocator) AllocLines(nLines int) Addr {
	if nLines <= 0 {
		panic("mem: AllocLines with non-positive size")
	}
	if fl := a.free[nLines]; len(fl) > 0 {
		p := fl[len(fl)-1]
		a.free[nLines] = fl[:len(fl)-1]
		return p
	}
	if rem := a.next & (LineBytes - 1); rem != 0 {
		a.next += LineBytes - rem
	}
	p := a.next
	a.next += Addr(nLines * LineBytes)
	return p
}

// FreeLines returns a block previously obtained from AllocLines (or
// AllocAligned with the same line count) to the free list. The caller is
// responsible for not freeing memory that live snapshots still reference —
// in the transactional containers a node is freed only after the removal
// that unlinked it has committed.
func (a *Allocator) FreeLines(p Addr, nLines int) {
	if nLines <= 0 || p == 0 || p&(LineBytes-1) != 0 {
		panic("mem: FreeLines with invalid block")
	}
	a.free[nLines] = append(a.free[nLines], p)
}

// FreeCount returns how many blocks of nLines lines sit on the free list.
func (a *Allocator) FreeCount(nLines int) int { return len(a.free[nLines]) }

// AllocAligned reserves nWords words starting on a fresh cache line. It is
// the usual allocation mode for transactional data-structure nodes: each
// node occupies its own line(s) so that line-granularity conflict detection
// does not create artificial conflicts between nodes.
func (a *Allocator) AllocAligned(nWords int) Addr {
	lines := (nWords*WordBytes + LineBytes - 1) / LineBytes
	return a.AllocLines(lines)
}

// Brk returns the current top of the allocated region (exclusive).
func (a *Allocator) Brk() Addr { return a.next }
