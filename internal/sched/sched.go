// Package sched implements a deterministic discrete-event machine simulator.
//
// It stands in for the ZSim cycle-accurate simulator used by the SI-TM paper
// (Litz et al., ASPLOS 2014). The simulator models N logical hardware
// threads, each with a monotonically increasing cycle counter. A conductor
// goroutine always resumes the runnable thread with the lowest cycle count
// (ties broken by thread ID), so operation streams from different threads
// interleave in simulated time exactly as they would in an event-driven
// architectural simulator. Given the same seed and workload, a simulation is
// fully deterministic.
//
// Exactly one logical thread executes at any instant. Threads are
// iter.Pull coroutines, not goroutines: a handoff between conductor and
// thread is a direct coroutine switch on the same OS thread — no runtime
// scheduler locks, no park/unpark, no cross-P wakeup — and the runtime's
// coroutine switch establishes the happens-before edges, so shared engine
// state needs no additional locking and the race detector stays quiet.
//
// Run keeps the non-running runnable threads in a min-heap keyed on
// (cycles, id) and lets Tick return inline — no coroutine switch at all —
// while the charging thread remains the lowest-cycle runnable thread (the
// heap root bounds everyone else, and their counters are frozen while
// parked). The interleaving is provably the one the per-Tick conductor
// would have chosen; Slow retains that original conductor as a
// differential oracle.
package sched

import (
	"fmt"
	"iter"
)

// Thread is one logical hardware thread of the simulated machine. All
// simulated work — transactional memory operations, local computation,
// backoff — is charged to its cycle counter via Tick.
type Thread struct {
	id     int
	sim    *Sim
	cycles uint64
	rng    *Rand

	// slack is the thread's published interaction slack: a promise that,
	// from any point where the thread is parked, it will charge strictly
	// more than slack cycles before performing its next non-commuting
	// effect on simulated shared state (an MVM install or revert, a cache
	// invalidation, a presence drain). The horizon conductor uses parked
	// threads' slacks to extend another thread's quantum past their cycle
	// counters; see TickHinted. Zero — the default — promises nothing.
	slack uint64

	// yield suspends the thread's coroutine and returns control to the
	// conductor's resume call; resume restarts it. Both are rebuilt by
	// start for every Run/Slow invocation.
	yield   func(struct{}) bool
	resume  func() (struct{}, bool)
	done    bool
	stalled bool
}

// ID returns the thread's index in [0, NumThreads).
func (t *Thread) ID() int { return t.id }

// Cycles returns the simulated cycles consumed by the thread so far.
func (t *Thread) Cycles() uint64 { return t.cycles }

// Rand returns the thread's deterministic random number generator.
func (t *Thread) Rand() *Rand { return t.rng }

// Tick charges c simulated cycles to the thread and yields to the
// conductor, which may switch to another thread whose cycle counter is now
// lower. Every modelled operation must Tick at least once so that the
// interleaving reflects simulated time.
//
// Under Run's heap conductor the yield is usually free: when the charging
// thread is still ordered before the heap root — strictly lower cycles, or
// equal cycles and lower ID — the conductor would resume it immediately,
// so Tick returns inline without even a coroutine switch. Parked threads'
// counters cannot change (only the running thread charges cycles; WakeAll
// re-inserts woken threads with their advanced clocks), so the root is a
// sound bound on every other runnable thread.
func (t *Thread) Tick(c uint64) {
	t.cycles += c
	s := t.sim
	if s.fast {
		if len(s.runq) == 0 {
			s.stats.InlineTicks++
			return
		}
		if r := &s.runq[0]; t.cycles < r.cycles || (t.cycles == r.cycles && int32(t.id) < r.id) {
			s.stats.InlineTicks++
			return
		}
	}
	if !t.yield(struct{}{}) {
		panic("sched: thread resumed after its conductor stopped")
	}
}

// LocalTick charges c simulated cycles for work that is purely
// thread-local: the inter-yield segment it covers performs no effect on
// simulated shared state at all (workload think time, backoff delays).
// Under the heap conductor it is a pure counter charge — no root check,
// no yield — because a charge with no attached effects commutes with
// every other thread's events: delaying the handoff cannot change what
// any thread observes. Under the reference conductors (Slow, RunChoose)
// it behaves exactly like Tick, so the differential oracle and the model
// checker see an unchanged per-event machine.
//
// The caller must not touch simulated shared state between a LocalTick
// and the next Tick, TickHinted, Fence or Stall unless that touch is
// itself certified commuting (see TickHinted); tm.Atomic fences before
// Engine.Begin so transaction boundaries re-synchronise automatically.
func (t *Thread) LocalTick(c uint64) {
	t.cycles += c
	s := t.sim
	if s.fast {
		s.stats.LocalTicks++
		return
	}
	if !t.yield(struct{}{}) {
		panic("sched: thread resumed after its conductor stopped")
	}
}

// TickHinted charges c simulated cycles for an event the caller has
// certified non-interacting: until the thread's next Tick, TickHinted,
// Fence or Stall it will only perform effects that commute with anything
// a parked thread could do inside the horizon — blind presence ORs,
// mutation-free way-predicted cache hits, snapshot reads whose outcome is
// pinned by the parked threads' published slacks, and pure local work.
//
// Under the heap conductor it first takes Tick's inline path (still
// ordered before the heap root). Past the root it may *batch*: if the
// post-charge key is still strictly below the horizon — the minimum over
// parked runnable threads of (frozen cycle counter + published slack) —
// the thread keeps running inline, because no parked thread can perform
// a non-commuting effect below that bound (Thread.slack) and the batched
// events themselves were certified commuting by the caller. Otherwise it
// yields like Tick. Under the reference conductors it is exactly Tick.
func (t *Thread) TickHinted(c uint64) {
	t.cycles += c
	s := t.sim
	if s.fast {
		if len(s.runq) == 0 {
			s.stats.InlineTicks++
			return
		}
		if r := &s.runq[0]; t.cycles < r.cycles || (t.cycles == r.cycles && int32(t.id) < r.id) {
			s.stats.InlineTicks++
			return
		}
		if t.cycles < s.horizon() {
			s.stats.BatchedEvents++
			if t.cycles > s.maxBatchedKey {
				s.maxBatchedKey = t.cycles
			}
			return
		}
	}
	if !t.yield(struct{}{}) {
		panic("sched: thread resumed after its conductor stopped")
	}
}

// Fence ends any batched quantum: under the heap conductor it yields if
// the thread has charged past the heap root (exactly Tick(0)); everywhere
// else — the reference conductors, or a thread still ordered before the
// root — it is a no-op. Call it before an effect that
// does not commute with parked threads' events when the preceding charges
// went through LocalTick/TickHinted; tm.Atomic fences once per attempt,
// which covers every engine's Begin-side clock and stall logic.
func (t *Thread) Fence() {
	s := t.sim
	if !s.fast {
		return
	}
	if len(s.runq) == 0 {
		return
	}
	if r := &s.runq[0]; t.cycles < r.cycles || (t.cycles == r.cycles && int32(t.id) < r.id) {
		return
	}
	if !t.yield(struct{}{}) {
		panic("sched: thread resumed after its conductor stopped")
	}
}

// SetSlack publishes the calling thread's interaction slack: a promise
// that from any parked position it will charge strictly more than s
// cycles before its next non-commuting shared-state effect. Engines set
// it at phase boundaries (e.g. SI-TM holds CommitOverhead outside the
// writer-commit critical section and zero inside it) and must only ever
// set their own thread's slack. A stale promise is caught by Interact.
func (t *Thread) SetSlack(s uint64) {
	t.slack = s
}

// Slack returns the thread's published interaction slack.
func (t *Thread) Slack() uint64 { return t.slack }

// Interact is the audit hook guarding the horizon machinery: engines call
// it at every non-commuting shared-state effect (installs, invalidations,
// presence drains, reverts). If any thread has already batched an event
// at a simulated key above the caller's current key, the conductor
// admitted an interleaving the per-event machine would have ordered
// differently — a stale slack promise — and the simulation is unsound,
// so Interact panics rather than let the divergence propagate silently.
func (t *Thread) Interact() {
	s := t.sim
	if t.cycles < s.maxBatchedKey {
		panic(fmt.Sprintf(
			"sched: thread %d interacts with shared state at cycle %d below the batched horizon %d — a published slack promise was stale",
			t.id, t.cycles, s.maxBatchedKey))
	}
}

// before reports whether t runs before u in the lowest-cycle-first,
// ties-by-ID order.
func (t *Thread) before(u *Thread) bool {
	return t.cycles < u.cycles || (t.cycles == u.cycles && t.id < u.id)
}

// WakeAll unparks every stalled thread of the machine, advancing their
// clocks to this thread's clock (see Sim.WakeAll).
func (t *Thread) WakeAll() { t.sim.WakeAll(t) }

// Stall parks the thread until another thread calls Sim.WakeAll. It models
// a hardware stall (e.g. a transaction waiting for the commit window). The
// thread's clock is advanced to the waker's clock on wakeup so stalled time
// is accounted for. Stalling always hands control to the conductor — the
// inline fast path applies only to Tick, where the thread stays runnable.
func (t *Thread) Stall() {
	t.stalled = true
	if !t.yield(struct{}{}) {
		panic("sched: thread resumed after its conductor stopped")
	}
}

// Sim is the machine: a set of logical threads and the conductor that
// interleaves them deterministically in simulated time.
type Sim struct {
	threads []*Thread
	seed    uint64

	// runq is the conductor's min-heap of runnable, not-currently-running
	// threads, keyed on (cycles, id); fast is set while Run's heap
	// conductor is driving, enabling Tick's inline path. Slow leaves fast
	// unset so every Tick reaches its linear-scan conductor.
	runq []runqEnt
	fast bool

	// horizonKey caches the current horizon — min over parked runnable
	// threads of (frozen cycles + published slack) — and horizonGen/heapGen
	// invalidate it: the run queue only changes at conductor handoffs, so
	// one recomputation per handoff serves an entire batched quantum.
	horizonKey uint64
	horizonGen uint64
	heapGen    uint64

	// maxBatchedKey is the highest simulated key at which any thread has
	// batched an event past the heap root; Interact audits against it.
	maxBatchedKey uint64

	stats Stats
}

// Stats counts conductor work for one Run/Slow invocation; reset at the
// start of each. It quantifies the coroutine-switch tax the horizon
// batching attacks (surfaced as the sched_stats section of
// sitm-bench -json).
type Stats struct {
	// CoroutineSwitches is the number of coroutine resumes the conductor
	// performed — each is a Go-runtime switch plus heap traffic.
	CoroutineSwitches uint64 `json:"coroutine_switches"`
	// InlineTicks counts charges that returned inline while the thread
	// was still ordered before the heap root (the PR 3 fast path).
	InlineTicks uint64 `json:"inline_ticks"`
	// BatchedEvents counts charges that returned inline past the heap
	// root because they stayed below the horizon (multi-event quanta).
	BatchedEvents uint64 `json:"batched_events"`
	// LocalTicks counts pure thread-local charges that skipped the
	// conductor entirely.
	LocalTicks uint64 `json:"local_ticks"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CoroutineSwitches += other.CoroutineSwitches
	s.InlineTicks += other.InlineTicks
	s.BatchedEvents += other.BatchedEvents
	s.LocalTicks += other.LocalTicks
}

// Stats returns the conductor counters of the last Run/Slow invocation.
func (s *Sim) Stats() Stats { return s.stats }

// horizon returns the cached horizon for the current handoff, recomputing
// it if the run queue changed. A parked thread's counter is frozen and
// its slack can only be rewritten by itself (so not while parked), which
// makes the cached value exact for the duration of a quantum.
func (s *Sim) horizon() uint64 {
	if s.horizonGen == s.heapGen {
		return s.horizonKey
	}
	var h uint64
	for i := range s.runq {
		ent := &s.runq[i]
		if k := ent.cycles + ent.t.slack; i == 0 || k < h {
			h = k
		}
	}
	s.horizonKey = h
	s.horizonGen = s.heapGen
	return h
}

// runqEnt is one heap slot: the thread plus an inline copy of its sort
// key. A parked thread's counter is frozen (only the running thread
// charges cycles, and WakeAll advances clocks before re-inserting), so
// the snapshot taken at insertion stays exact; keeping it inline makes
// every heap comparison a pair of loads from the heap array instead of a
// pointer chase into the Thread.
type runqEnt struct {
	cycles uint64
	id     int32
	t      *Thread
}

// entOf snapshots t's sort key into a heap entry.
func entOf(t *Thread) runqEnt { return runqEnt{cycles: t.cycles, id: int32(t.id), t: t} }

// entBefore reports whether heap entry a orders before b
// (lowest-cycle-first, ties by ID).
func entBefore(a, b runqEnt) bool {
	return a.cycles < b.cycles || (a.cycles == b.cycles && a.id < b.id)
}

// New creates a machine with n logical threads. The seed makes every
// per-thread RNG, and therefore the whole simulation, deterministic.
func New(n int, seed uint64) *Sim {
	if n <= 0 {
		panic(fmt.Sprintf("sched: invalid thread count %d", n))
	}
	s := &Sim{}
	s.seed = seed
	for i := 0; i < n; i++ {
		s.threads = append(s.threads, &Thread{
			id:  i,
			sim: s,
			rng: NewRand(seed*0x9E3779B97F4A7C15 + uint64(i+1)),
		})
	}
	return s
}

// NumThreads returns the number of logical threads.
func (s *Sim) NumThreads() int { return len(s.threads) }

// Thread returns logical thread i.
func (s *Sim) Thread(i int) *Thread { return s.threads[i] }

// Makespan returns the simulated completion time of the machine: the
// maximum cycle counter across threads. Call after Run.
func (s *Sim) Makespan() uint64 {
	var m uint64
	for _, t := range s.threads {
		if t.cycles > m {
			m = t.cycles
		}
	}
	return m
}

// TotalCycles returns the sum of all per-thread cycle counters.
func (s *Sim) TotalCycles() uint64 {
	var m uint64
	for _, t := range s.threads {
		m += t.cycles
	}
	return m
}

// WakeAll unparks every stalled thread, advancing their clocks to the
// caller's clock so that waiting time is charged. Under the heap conductor
// the woken threads re-enter the run queue with their advanced (and from
// then on frozen) counters, so the heap root stays a sound bound for the
// waker's subsequent inline Ticks.
func (s *Sim) WakeAll(waker *Thread) {
	for _, t := range s.threads {
		if t.stalled {
			t.stalled = false
			if t.cycles < waker.cycles {
				t.cycles = waker.cycles
			}
			if s.fast {
				s.push(t)
			}
		}
	}
}

// The run queue is a 4-ary heap: at the machine sizes simulated here
// (up to 64 threads) it halves the sift depth of a binary heap and keeps
// each node's children in one or two cache lines. Heap arity is not
// observable — every pop still returns the unique (cycles, id) minimum,
// so the interleaving is identical to any other heap's.
const heapArity = 4

// push inserts t into the run-queue heap.
func (s *Sim) push(t *Thread) {
	s.heapGen++
	s.runq = append(s.runq, entOf(t))
	i := len(s.runq) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !entBefore(s.runq[i], s.runq[p]) {
			break
		}
		s.runq[i], s.runq[p] = s.runq[p], s.runq[i]
		i = p
	}
}

// pop removes and returns the heap's minimum (cycles, id) thread.
func (s *Sim) pop() *Thread {
	s.heapGen++
	min := s.runq[0].t
	last := len(s.runq) - 1
	s.runq[0] = s.runq[last]
	s.runq[last] = runqEnt{}
	s.runq = s.runq[:last]
	s.siftDown()
	return min
}

// replaceTop swaps t for the heap's minimum in one sift: the returned
// thread is the old root (the next to run), and t takes its place in the
// heap. This is the conductor's per-handoff operation — a yielding thread
// is by construction no longer ordered before the root, so pop-then-push
// would sift twice for the same result.
func (s *Sim) replaceTop(t *Thread) *Thread {
	s.heapGen++
	min := s.runq[0].t
	s.runq[0] = entOf(t)
	s.siftDown()
	return min
}

// siftDown restores the heap property after the root was replaced. The
// displaced root is held out of the array and moves down a hole instead
// of being swapped level by level: one store per level rather than a
// 24-byte exchange. The final layout matches the classic swap formulation
// (the child scan is the same strict left-to-right minimum), and pop
// order would be unchanged by layout anyway — every pop extracts the
// unique (cycles, id) minimum.
func (s *Sim) siftDown() {
	n := len(s.runq)
	if n == 0 {
		return
	}
	ent := s.runq[0]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		next := first
		best := s.runq[first]
		for c := first + 1; c < last; c++ {
			if entBefore(s.runq[c], best) {
				next = c
				best = s.runq[c]
			}
		}
		if !entBefore(best, ent) {
			break
		}
		s.runq[i] = best
		i = next
	}
	s.runq[i] = ent
}

// start builds a fresh coroutine per logical thread, suspended before its
// first body instruction, and returns the live count. The coroutine runs
// body when first resumed; yielding inside Tick/Stall switches straight
// back to the conductor's resume call.
func (s *Sim) start(body func(*Thread)) int {
	s.stats = Stats{}
	s.maxBatchedKey = 0
	for _, t := range s.threads {
		t.done = false
		t.slack = 0
		t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			body(t)
		})
	}
	return len(s.threads)
}

// Run executes body(thread) on every logical thread and interleaves them
// lowest-cycle-first until all bodies return. It panics on total deadlock
// (every live thread stalled), which indicates an engine bug.
//
// The conductor holds every runnable, non-running thread in the run-queue
// heap: it pops the minimum, resumes it, and re-inserts it when it yields.
// The running thread only reaches the conductor when it is no longer the
// global minimum (see Tick), when it stalls, or when its body returns — on
// the common path a cycle charge is a single heap-root comparison.
func (s *Sim) Run(body func(*Thread)) {
	s.fast = true
	defer func() { s.fast = false }()
	live := s.start(body)
	s.runq = s.runq[:0]
	for _, t := range s.threads {
		s.push(t)
	}
	next := s.pop()
	for {
		s.stats.CoroutineSwitches++
		if _, ok := next.resume(); !ok {
			// The coroutine ran body to completion.
			next.done = true
			live--
			if live == 0 {
				return
			}
			if len(s.runq) == 0 {
				panic("sched: deadlock — all live threads stalled")
			}
			next = s.pop()
		} else if next.stalled {
			// Stalled threads stay out of the heap until WakeAll
			// re-inserts them.
			if len(s.runq) == 0 {
				panic("sched: deadlock — all live threads stalled")
			}
			next = s.pop()
		} else {
			// A non-stall yield means the heap root is ordered before
			// the yielder (Tick's inline check failed), so the root
			// runs next and the yielder takes its heap slot.
			next = s.replaceTop(next)
		}
	}
}

// Slow executes body exactly like Run but with the reference conductor: a
// coroutine handoff on every Tick and a linear min-scan over the runnable
// list per yield. It is retained as the differential oracle for Run — the
// two must produce identical interleavings, cycle counters and makespans
// for any body — and as the readable specification of the scheduling
// order.
func (s *Sim) Slow(body func(*Thread)) {
	live := s.start(body)
	runnable := make([]*Thread, len(s.threads))
	copy(runnable, s.threads)
	for live > 0 {
		// Pick the runnable (not stalled, not done) thread with the
		// lowest cycle count; ties break by ID for determinism.
		var next *Thread
		for _, t := range runnable {
			if t.done || t.stalled {
				continue
			}
			if next == nil || t.before(next) {
				next = t
			}
		}
		if next == nil {
			panic("sched: deadlock — all live threads stalled")
		}
		s.stats.CoroutineSwitches++
		if _, ok := next.resume(); !ok {
			next.done = true
			live--
			// Compact the runnable list; the in-place filter preserves
			// the existing ID order, so no re-sort is needed.
			n := runnable[:0]
			for _, t := range runnable {
				if !t.done {
					n = append(n, t)
				}
			}
			runnable = n
		}
	}
}
