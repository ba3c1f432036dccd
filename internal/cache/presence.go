package cache

import "repro/internal/mem"

// Presence is a conservative per-line record of which cores may hold a
// cache line in a private structure — a snoop filter with no false
// negatives. A private cache fills only on its own core's accesses, so an
// engine that calls Note on every access path knows that any core whose
// bit is clear cannot hold the line; commit-time invalidation then visits
// exactly the noted cores instead of broadcasting to every core. Skipped
// cores would have experienced a no-op invalidation, so the filtered
// publish is observably identical to the broadcast it replaces.
//
// Bits go stale when a line is silently evicted — that costs one no-op
// invalidate later, never a missed one. Drain clears the bits of the
// cores it returns, because after the caller invalidates them the line is
// definitely absent there; a core that re-fills the line re-Notes it.
//
// Only cores 0..63 are tracked (one bit each). A core with a larger ID
// has a zero bit — Note is a no-op and Drain never returns it — so
// callers must keep broadcasting to cores beyond 64.
//
// The bit table is a paged store (mem.Paged): at serving-scale footprints
// the line-number space runs to 2²⁴ and beyond, and a dense table sized
// by the maximum line ever noted would dwarf the touched set. Engines
// built with a Scratch recycle pristine spines across cells via
// NewPresence/Release — the per-cell reset walks only the dirty pages.
type Presence struct {
	bits mem.Paged[uint64]
}

// NewPresence returns a presence filter, reusing a pristine recycled bit
// table from s when one is available (s may be nil).
func NewPresence(s *Scratch) Presence {
	if s != nil && len(s.presence) > 0 {
		p := s.presence[len(s.presence)-1]
		s.presence = s.presence[:len(s.presence)-1]
		return p
	}
	return Presence{}
}

// Release resets the bit table in O(dirty pages) and donates it to s for
// the next cell's NewPresence. The Presence must not be used afterwards.
// Safe with a nil Scratch (the table is left to the garbage collector).
func (p *Presence) Release(s *Scratch) {
	if s == nil {
		return
	}
	p.bits.Reset()
	s.presence = append(s.presence, *p)
	p.bits = mem.Paged[uint64]{}
}

// Note records that the core with the given bit (CoreBit of its ID) may
// now hold line. Call it before the access's cycle charge is ticked: the
// fill itself happens before the simulated yield, so the record must too,
// or a commit interleaved with the yield would skip a real invalidation.
func (p *Presence) Note(line mem.Line, bit uint64) {
	if bit == 0 {
		return // untracked core (id >= 64): callers broadcast to it anyway
	}
	*p.bits.Slot(uint64(line)) |= bit
}

// Drain returns the tracked cores other than self that may hold line and
// clears their bits; the caller must invalidate the line in exactly the
// returned cores. The self bit is left in place — the committing core
// keeps the line resident. A drain that returns no cores writes nothing,
// so read-mostly lines never dirty their page.
func (p *Presence) Drain(line mem.Line, selfBit uint64) uint64 {
	v := p.bits.Load(uint64(line))
	others := v &^ selfBit
	if others != 0 {
		*p.bits.Slot(uint64(line)) = v & selfBit
	}
	return others
}

// CoreBit returns the presence bit of core id: 1<<id for tracked cores,
// zero (never noted, never drained) beyond 63.
func CoreBit(id int) uint64 {
	if id >= 64 {
		return 0
	}
	return uint64(1) << uint(id)
}
