package tmtest_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/sched"
	"repro/internal/tm"
)

// TestCacheDifferential pins the memory-hierarchy fast path's state
// management at the engine level: for every registered engine, across
// thread counts and seeds, a run on freshly allocated cache arrays and a
// run on arrays recycled through a cache.Scratch that an earlier, larger
// run left dirty produce bit-identical engine statistics, makespans,
// final memory state and cache statistics. Recycling resets only what
// the previous owner touched — the tag/stamp sets, the way predictions,
// the LRU clock and the presence filter's paged bit table — so a missed
// reset shows up here as a spurious hit, a stale prediction or a skipped
// invalidation. The per-stream differential against the reference model
// (cache.SlowHierarchy) lives in internal/cache and the report-level
// digests in internal/harness.
func TestCacheDifferential(t *testing.T) {
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					fresh := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed, (*sched.Sim).Run)
					scratch := cache.NewScratch()
					// Dirty every core's arrays the recycled run will draw,
					// under another schedule.
					runEngineWorkload(t, name, tm.EngineOptions{CacheScratch: scratch}, 8, seed+100, (*sched.Sim).Run)
					recycled := runEngineWorkload(t, name, tm.EngineOptions{CacheScratch: scratch}, threads, seed, (*sched.Sim).Run)
					if fresh != recycled {
						t.Errorf("fresh caches %+v\nrecycled caches %+v", fresh, recycled)
					}
				})
			}
		}
	}
}

// TestCacheStatsAccounting audits the hit/miss bookkeeping for every
// registered engine: each simulated access resolves at exactly one level,
// so the per-level hit counts plus memory accesses must sum to the total
// access count (translation-cache probes are accounted separately, as
// they ride along with a versioned access rather than resolving it).
func TestCacheStatsAccounting(t *testing.T) {
	for _, name := range tm.Engines() {
		t.Run(name, func(t *testing.T) {
			res := runEngineWorkload(t, name, tm.EngineOptions{}, 4, 1, (*sched.Sim).Run)
			cs := res.cache
			if cs.Accesses == 0 {
				t.Fatalf("%s reported no simulated cache accesses", name)
			}
			if got := cs.L1Hits + cs.L2Hits + cs.L3Hits + cs.MemAccesses; got != cs.Accesses {
				t.Errorf("%s cache stats do not balance: L1 %d + L2 %d + L3 %d + mem %d = %d, want Accesses %d",
					name, cs.L1Hits, cs.L2Hits, cs.L3Hits, cs.MemAccesses, got, cs.Accesses)
			}
		})
	}
}
