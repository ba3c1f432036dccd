package tmtest_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// schedResult is everything the evaluation reports about one simulation:
// the full engine statistics (commits, read-only commits, aborts by kind,
// stalls, backoff cycles) plus the simulated makespan. Stats holds only
// fixed-size fields, so results compare with ==.
type schedResult struct {
	stats    tm.Stats
	makespan uint64
	state    uint64      // xor over final memory words, pins the data too
	sum      uint64      // plain sum of the final memory words
	cache    cache.Stats // aggregate simulated-cache stats, when the engine reports them
}

// cacheStatser is implemented by every engine that simulates the memory
// hierarchy; the sweeps use it to compare and audit cache statistics
// without per-engine knowledge.
type cacheStatser interface {
	CacheStats() cache.Stats
}

// runEngineWorkload drives a mixed workload (contended counters, bank
// transfers and two-word record updates) on a fresh engine under the given conductor — the inline
// fast-path scheduler (*Sim).Run or the reference (*Sim).Slow. An engine
// built on a cache scratch returns its arrays to it after the run.
func runEngineWorkload(t *testing.T, name string, opts tm.EngineOptions, threads int, seed uint64, run func(*sched.Sim, func(*sched.Thread))) schedResult {
	t.Helper()
	return runWrappedWorkload(t, name, opts, nil, threads, seed, run)
}

// runWrappedWorkload is runEngineWorkload with the workload's
// transactions routed through wrap(e) (e itself when wrap is nil); the
// result is read from the engine underneath.
func runWrappedWorkload(t *testing.T, name string, opts tm.EngineOptions, wrap func(tm.Engine) tm.Engine, threads int, seed uint64, run func(*sched.Sim, func(*sched.Thread))) schedResult {
	t.Helper()
	e, err := tm.NewEngine(name, opts)
	if err != nil {
		t.Fatalf("constructing %s: %v", name, err)
	}
	te := e
	if wrap != nil {
		te = wrap(e)
	}
	const accounts = 6
	addr := func(i int) mem.Addr { return mem.Addr((i + 1) * mem.LineBytes) }
	for i := 0; i < accounts; i++ {
		e.NonTxWrite(addr(i), 100)
	}
	s := sched.New(threads, seed)
	run(s, func(th *sched.Thread) {
		r := th.Rand()
		for i := 0; i < 30; i++ {
			switch r.Uint64() % 3 {
			case 0:
				_ = tm.Atomic(te, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					a := addr(r.Intn(accounts))
					tx.Write(a, tx.Read(a)+1)
					return nil
				})
			case 1:
				from, to := addr(r.Intn(accounts)), addr(r.Intn(accounts))
				_ = tm.Atomic(te, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					balance := tx.Read(from)
					if from == to || balance < 3 {
						return nil
					}
					tx.Write(from, balance-3)
					tx.Write(to, tx.Read(to)+3)
					return nil
				})
			default:
				// Two-word record update: the second word of the line is
				// written twice, reading its own write back in between.
				_ = tm.Atomic(te, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
					a := addr(r.Intn(accounts))
					tx.Write(a+8, tx.Read(a+8)+1)
					tx.Write(a+8, tx.Read(a+8)+1)
					tx.Write(a, tx.Read(a)+1)
					return nil
				})
			}
		}
	})
	res := schedResult{stats: *e.Stats(), makespan: s.Makespan()}
	if cs, ok := e.(cacheStatser); ok {
		res.cache = cs.CacheStats()
	}
	for i := 0; i < accounts; i++ {
		v, w := e.NonTxRead(addr(i)), e.NonTxRead(addr(i)+8)
		res.state ^= v*uint64(i+1) ^ w*uint64(accounts+i+1)
		res.sum += v + w
	}
	if r, ok := e.(interface{ ReleaseCaches() }); ok && opts.CacheScratch != nil {
		r.ReleaseCaches()
	}
	return res
}

// TestSchedulerDifferential pins the conductor invariant end to end: for
// every registered engine, across thread counts and seeds, the batched
// heap conductor and the reference linear-scan conductor (which schedules
// strictly per event) produce bit-identical engine statistics, makespans,
// final memory state and cache statistics. Any divergence here means the
// Tick fast path or horizon batching changed the schedule, which would
// silently shift every figure in the evaluation.
func TestSchedulerDifferential(t *testing.T) {
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					fast := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed, (*sched.Sim).Run)
					slow := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed, (*sched.Sim).Slow)
					if fast != slow {
						t.Errorf("fast conductor %+v\nslow conductor %+v", fast, slow)
					}
				})
			}
		}
	}
}

// nopTracer observes nothing. Installing any tracer pins the engines'
// per-access event order (tm.Engine.SetTracer), so SI-TM then charges
// every access through Tick: the per-event heap conductor.
type nopTracer struct{}

func (nopTracer) TxnBegin(uint64, int)              {}
func (nopTracer) TxnRead(uint64, mem.Addr, string)  {}
func (nopTracer) TxnWrite(uint64, mem.Addr, string) {}
func (nopTracer) TxnCommit(uint64)                  {}
func (nopTracer) TxnAbort(uint64)                   {}

// TestBatchedSchedulerDifferential is the same registry-wide pin for
// horizon batching on the heap conductor alone: for every engine, the
// batched run and a per-event run (the same engine with a tracer
// installed, which turns batching off) must agree on engine statistics,
// makespan, final memory and cache statistics. It also guards that
// batching is actually engaged where it is supposed to be — the plain
// SI-TM engine — by asserting batched events and fewer coroutine switches
// than the per-event run.
func TestBatchedSchedulerDifferential(t *testing.T) {
	type run struct {
		res   schedResult
		stats sched.Stats
	}
	drive := func(t *testing.T, name string, threads int, seed uint64, perEvent bool) run {
		var st sched.Stats
		wrap := func(e tm.Engine) tm.Engine {
			if perEvent {
				e.SetTracer(nopTracer{})
			}
			return e
		}
		res := runWrappedWorkload(t, name, tm.EngineOptions{}, wrap, threads, seed,
			func(s *sched.Sim, body func(*sched.Thread)) {
				s.Run(body)
				st = s.Stats()
			})
		return run{res: res, stats: st}
	}
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					batched := drive(t, name, threads, seed, false)
					perEvent := drive(t, name, threads, seed, true)
					if batched.res != perEvent.res {
						t.Errorf("batched conductor %+v\nper-event conductor %+v", batched.res, perEvent.res)
					}
					if perEvent.stats.BatchedEvents != 0 {
						t.Errorf("per-event run batched %d events", perEvent.stats.BatchedEvents)
					}
					// A single thread is always the heap root: its charges
					// stay on the inline-tick path and no quantum ever needs
					// batching, so the engagement assertions start at 2.
					if name == "SI-TM" && threads > 1 && batched.stats.BatchedEvents == 0 {
						t.Errorf("SI-TM ran no batched events: %+v", batched.stats)
					}
					if name == "SI-TM" && threads > 1 && batched.stats.CoroutineSwitches >= perEvent.stats.CoroutineSwitches {
						t.Errorf("batched conductor switched %d times, per-event %d: batching should reduce switches",
							batched.stats.CoroutineSwitches, perEvent.stats.CoroutineSwitches)
					}
				})
			}
		}
	}
}
