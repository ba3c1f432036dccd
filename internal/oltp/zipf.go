// Package oltp implements the serving-workload tier: a seeded Zipfian key
// generator, a tiny-transaction KV workload and a million-account
// bank/ledger, both read-mostly sessions punctuated by long analytical
// read-only scans — the regime where snapshot isolation's headline
// advantage (long read-only transactions never abort writers, §1) pays
// off at scale. Workloads satisfy the harness Workload interface
// structurally, exactly like internal/micro and internal/stamp.
package oltp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sched"
)

// Zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta — the Gray
// et al. "Quickly generating billion-record synthetic databases" formula
// YCSB popularised. All randomness comes from the caller's *sched.Rand,
// so draws are deterministic per simulated thread; the precomputed
// constants are pure functions of (n, theta).
//
// Ranks map to keys directly (rank 0 is the hottest key): scrambling the
// ranks across the key space, as YCSB does, would deliberately destroy
// locality — here the contiguous hot head is the point, letting the
// paged memory tier keep the footprint proportional to the touched
// pages while the address span stays serving-scale.
type Zipf struct {
	n      uint64
	theta  float64
	alpha  float64
	zetan  float64
	eta    float64
	thresh float64 // 1 + 0.5^theta, the two-element fast path bound
}

// ValidateTheta checks the skew parameter up front: the Gray formula
// needs theta in [0, 1) (theta = 0 is uniform; 1 diverges).
func ValidateTheta(theta float64) error {
	if math.IsNaN(theta) || theta < 0 || theta >= 1 {
		return fmt.Errorf("oltp: theta must be in [0, 1), got %g", theta)
	}
	return nil
}

// NewZipf returns the generator over n ranks with skew theta. It panics
// on invalid parameters — callers validate user input with
// ValidateTheta. Preparing a generator is O(n) (the zeta sum), so it
// runs once per (n, theta) per process: every later call, from any
// goroutine, gets the same *Zipf. Sharing is safe because a generator is
// immutable and O(1) per draw — one Zipf already serves every simulated
// thread of a cell — and the constants are the same sum in the same
// order however many cells ask for them.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("oltp: NewZipf with zero ranks")
	}
	if err := ValidateTheta(theta); err != nil {
		panic(err.Error())
	}
	k := zipfKey{n, theta}
	zipfMu.Lock()
	get, ok := zipfMemo[k]
	if !ok {
		get = sync.OnceValue(func() *Zipf { return prepareZipf(n, theta) })
		zipfMemo[k] = get
	}
	zipfMu.Unlock()
	return get()
}

// zipfKey identifies one shared generator. theta is never NaN here
// (ValidateTheta rejects it), so map equality is well defined; -0 and +0
// share an entry, which is sound because they yield identical constants.
type zipfKey struct {
	n     uint64
	theta float64
}

// zipfMemo holds one lazily prepared generator per (n, theta). The map
// lock is held only to find or insert the entry; the O(n) sum runs under
// the entry's sync.OnceValue, so concurrent first callers of one key wait
// for a single preparation while other keys proceed.
var (
	zipfMu   sync.Mutex
	zipfMemo = make(map[zipfKey]func() *Zipf)
)

// prepareZipf computes the generator's constants: the O(n) zeta sum and
// the Gray et al. closed-form terms derived from it.
func prepareZipf(n uint64, theta float64) *Zipf {
	z := &Zipf{n: n, theta: theta}
	for i := uint64(1); i <= n; i++ {
		z.zetan += math.Pow(float64(i), -theta)
	}
	zeta2 := 1.0
	if n >= 2 {
		zeta2 += math.Pow(2, -theta)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.thresh = 1 + math.Pow(0.5, theta)
	return z
}

// Next draws the next rank in [0, n) using r.
func (z *Zipf) Next(r *sched.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.thresh {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}
