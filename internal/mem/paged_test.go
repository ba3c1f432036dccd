package mem

import (
	"math/rand/v2"
	"testing"
)

// TestPagedDifferential pins the paged store against the flat Dense
// model: random interleavings of loads, stores, slot mutations and
// resets must observe identical values throughout.
func TestPagedDifferential(t *testing.T) {
	for _, span := range []uint64{100, PageEntries, 3 * PageEntries} {
		r := rand.New(rand.NewPCG(42, span))
		var fast Paged[uint64]
		var slow Dense[uint64]
		for op := 0; op < 20000; op++ {
			i := r.Uint64N(span)
			switch r.IntN(10) {
			case 0, 1, 2, 3:
				if got, want := fast.Load(i), slow.Load(i); got != want {
					t.Fatalf("span %d op %d: Load(%d) = %d, reference %d", span, op, i, got, want)
				}
			case 4, 5, 6:
				v := r.Uint64()
				fast.Store(i, v)
				slow.Store(i, v)
			case 7, 8:
				*fast.Slot(i) += i + 1
				*slow.Slot(i) += i + 1
			case 9:
				if r.IntN(50) == 0 {
					fast.Reset()
					slow.Reset()
				}
			}
		}
		// Full sweep at the end, including indices never touched.
		for i := uint64(0); i < span; i++ {
			if got, want := fast.Load(i), slow.Load(i); got != want {
				t.Fatalf("span %d final: Load(%d) = %d, reference %d", span, i, got, want)
			}
		}
	}
}

// TestPagedRangeMatchesReference checks Range visits, in ascending
// order, exactly the slots the flat Dense model holds as non-zero.
func TestPagedRangeMatchesReference(t *testing.T) {
	var fast Paged[uint64]
	var slow Dense[uint64]
	r := rand.New(rand.NewPCG(7, 7))
	for k := 0; k < 500; k++ {
		i := r.Uint64N(8 * PageEntries)
		v := 1 + r.Uint64N(1000)
		fast.Store(i, v)
		slow.Store(i, v)
	}
	collect := func(p *Paged[uint64]) map[uint64]uint64 {
		m := make(map[uint64]uint64)
		last := int64(-1)
		p.Range(func(i uint64, v *uint64) {
			if int64(i) <= last {
				t.Fatalf("Range out of order: %d after %d", i, last)
			}
			last = int64(i)
			if *v != 0 {
				m[i] = *v
			}
		})
		return m
	}
	want := make(map[uint64]uint64)
	for i, v := range slow.Slice() {
		if v != 0 {
			want[uint64(i)] = v
		}
	}
	got := collect(&fast)
	if len(got) != len(want) {
		t.Fatalf("Range saw %d non-zero slots, reference %d", len(got), len(want))
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("Range slot %d = %d, reference %d", i, got[i], v)
		}
	}
}

// TestPagedResetOTouched pins the reset-to-pristine cost: after touching k
// pages, exactly k pages are dirty, Reset clears them, and pages stay
// allocated for reuse.
func TestPagedResetOTouched(t *testing.T) {
	var p Paged[uint64]
	// Touch 3 pages out of a 1000-page span.
	for _, pi := range []uint64{0, 500, 999} {
		p.Store(pi*PageEntries+17, pi+1)
	}
	if got := p.Pages(); got != 3 {
		t.Fatalf("Pages() = %d after touching 3 pages", got)
	}
	if got := p.DirtyPages(); got != 3 {
		t.Fatalf("DirtyPages() = %d after touching 3 pages", got)
	}
	p.Reset()
	if got := p.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages() = %d after Reset", got)
	}
	if got := p.Pages(); got != 3 {
		t.Fatalf("Pages() = %d after Reset; pages must be kept for reuse", got)
	}
	for _, pi := range []uint64{0, 500, 999} {
		if v := p.Load(pi*PageEntries + 17); v != 0 {
			t.Fatalf("Load after Reset = %d, want 0", v)
		}
	}
	// Loads of absent pages never allocate or dirty.
	_ = p.Load(700 * PageEntries)
	if got := p.Pages(); got != 3 {
		t.Fatalf("Pages() = %d after Load of absent page", got)
	}
	if got := p.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages() = %d after Load of absent page", got)
	}
}

// TestPagedSlotStable pins the pointer-stability contract: unlike
// Dense.Slot, a Paged slot pointer survives later growth.
func TestPagedSlotStable(t *testing.T) {
	var p Paged[uint64]
	s := p.Slot(5)
	*s = 99
	p.Store(100*PageEntries, 1) // forces spine growth
	if *s != 99 || p.Load(5) != 99 {
		t.Fatalf("slot pointer invalidated by growth: *s=%d Load=%d", *s, p.Load(5))
	}
}

// TestPagedBound checks the spine bound fails loudly on sparse-key bugs.
func TestPagedBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Slot beyond the address-space bound did not panic")
		}
	}()
	var p Paged[uint64]
	p.Slot(uint64(maxPageIndex) * PageEntries)
}
