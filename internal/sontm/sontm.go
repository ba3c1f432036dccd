// Package sontm implements the paper's second baseline (§6.1): the SONTM
// conflict-serializable HTM of Aydonat and Abdelrahman, which commits
// transactions in the presence of conflicting accesses as long as a valid
// serialization order exists.
//
// Each transaction maintains a serializability-order-number (SON) interval
// [lo, hi]. Reads-from dependencies raise the lower bound (a transaction
// serializes after the committed writer whose value it read, tracked via a
// global write-numbers table). At commit, a writer must also serialize
// after every committed reader of the lines it writes (the paper models an
// infinitely sized read-history; we keep the equivalent per-line maximum
// reader SON). A committing transaction broadcasts its write set: active
// transactions that read any of those lines must serialize before it
// (upper bound clamps), active transactions that wrote any of them must
// serialize after it (lower bound raises). A transaction whose interval
// empties can no longer be ordered and aborts.
//
// Access tracking uses the signature-backed tables of internal/aset: the
// commit broadcast probes other transactions' read/write sets with a
// one-word signature AND in the common miss case, mirroring the hardware
// signatures SONTM itself assumes.
package sontm

import (
	"fmt"
	"math/bits"

	"repro/internal/aset"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// Config tunes the baseline.
type Config struct {
	Cache cache.Config
	// BroadcastCost is the per-commit-line cost of broadcasting the
	// write set to other cores for read-history checks.
	BroadcastCost uint64
	// HashCost models tagging committed writes with their SON in the
	// global write-numbers hashtable (§6.1: "overheads in terms of
	// hashing and additional memory write operations").
	HashCost uint64
	// HistoryCheckCost is charged per written line and per concurrent
	// transaction at commit: the committer compares its write set
	// "against every readset in the read-history table", whose
	// population grows with concurrency — the weak point the paper
	// calls out ("the overheads of maintaining and checking conflicts
	// against this table are high") and the reason CS scalability
	// drops off at higher thread counts in Figure 8.
	HistoryCheckCost uint64
	// CommitOverhead is the fixed commit setup cost.
	CommitOverhead uint64
}

// DefaultConfig returns the evaluated configuration.
func DefaultConfig() Config {
	return Config{Cache: cache.DefaultConfig(), BroadcastCost: 4, HashCost: 6, HistoryCheckCost: 4, CommitOverhead: 10}
}

const maxSON = ^uint64(0)

// sonGap spaces the SONs that committed writers occupy. Writers take the
// next multiple of sonGap above their lower bound, leaving integer room so
// that readers overlapping two writers can still serialize between them.
const sonGap = 1 << 10

// Engine is the SONTM baseline.
type Engine struct {
	cfg    Config
	shared *cache.Shared
	// hiers holds each core's private hierarchy, indexed by thread ID
	// (IDs are dense, 0..n-1); nil until the thread first begins.
	hiers  []*cache.Hierarchy
	stats  tm.Stats
	tracer tm.Tracer

	// presence filters commit-time invalidation: only cores that
	// actually accessed a written line are visited (see cache.Presence);
	// the skipped invalidations are no-ops.
	presence cache.Presence

	// words, writeNums and readNums are paged tables keyed by word/line
	// number: the simulated address space is dense (bump allocated),
	// and words/writeNums sit on the per-access hot path where a map
	// hash dominated. The paged backing keeps the heap proportional to
	// touched lines at serving-scale footprints.
	words mem.Paged[uint64]
	// writeNums holds the SON of the last committed writer per line —
	// SONTM's global write-numbers hashtable.
	writeNums mem.Paged[uint64]
	// readNums holds the maximum SON of any committed reader per line —
	// the collapsed equivalent of the infinite read-history the paper
	// models.
	readNums mem.Paged[uint64]

	// active lists the in-flight transactions. A slice, not a set: the
	// commit broadcast walks it once per written line, and every
	// broadcast effect (interval raises/clamps, doom flags) is
	// commutative, so the swap-remove order is unobservable.
	active []*txn
	txnSeq uint64

	// lastTxn recycles each thread's most recent transaction object;
	// cleanup removes a finished transaction from active and resets its
	// sets, so the object and its grown tables can be reused without
	// rehash churn.
	lastTxn map[int]*txn

	commitBusy bool
}

// New creates a SONTM engine.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		shared:   cache.NewShared(cfg.Cache),
		lastTxn:  make(map[int]*txn),
		presence: cache.NewPresence(cfg.Cache.Scratch),
	}
	return e
}

// Name implements tm.Engine.
func (e *Engine) Name() string { return "SONTM" }

// Stats implements tm.Engine.
func (e *Engine) Stats() *tm.Stats { return &e.stats }

// Promote implements tm.Engine; SONTM is serializable, so promotion is a
// no-op.
func (e *Engine) Promote(string) {}

// SetTracer implements tm.Engine.
func (e *Engine) SetTracer(tr tm.Tracer) { e.tracer = tr }

// NonTxRead implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxRead(a mem.Addr) uint64 { return e.words.Load(mem.WordIndex(a)) }

// NonTxWrite implements tm.Engine.
//
//sitm:allow(yieldlint) workload setup/verification API, called before threads start or after they quiesce
func (e *Engine) NonTxWrite(a mem.Addr, v uint64) { e.words.Store(mem.WordIndex(a), v) }

func (e *Engine) hierarchy(t *sched.Thread) *cache.Hierarchy {
	id := t.ID()
	for id >= len(e.hiers) {
		e.hiers = append(e.hiers, nil)
	}
	h := e.hiers[id]
	if h == nil {
		h = cache.NewHierarchy(e.cfg.Cache, e.shared)
		e.hiers[id] = h
	}
	return h
}

// ReleaseCaches returns the simulated cache arrays to the scratch pool
// the engine was configured with (no-op without one). The harness calls
// it once the run's statistics have been extracted; the engine must not
// run transactions afterwards.
func (e *Engine) ReleaseCaches() {
	for _, h := range e.hiers {
		if h != nil {
			h.Release()
		}
	}
	e.hiers = nil
	e.shared.Release()
	e.presence.Release(e.cfg.Cache.Scratch)
}

// CacheStats returns aggregate cache statistics over all cores.
func (e *Engine) CacheStats() cache.Stats {
	var s cache.Stats
	for _, h := range e.hiers {
		if h == nil {
			continue
		}
		s.L1Hits += h.Stats.L1Hits
		s.L2Hits += h.Stats.L2Hits
		s.L3Hits += h.Stats.L3Hits
		s.MemAccesses += h.Stats.MemAccesses
		s.XlateHits += h.Stats.XlateHits
		s.XlateMisses += h.Stats.XlateMisses
		s.Accesses += h.Stats.Accesses
	}
	return s
}

// AuditAccessSets verifies that no live access-set state survives outside
// a running transaction: the active list is empty and every recycled
// transaction object holds empty sets. tmtest calls it after each
// conformance cell.
func (e *Engine) AuditAccessSets() error {
	if n := len(e.active); n != 0 {
		return fmt.Errorf("sontm: %d transactions still active after quiescence", n)
	}
	for id, tx := range e.lastTxn {
		if tx == nil {
			continue
		}
		if !tx.finished {
			return fmt.Errorf("sontm: thread %d transaction unfinished", id)
		}
		if n := tx.readSet.Len(); n != 0 {
			return fmt.Errorf("sontm: thread %d leaked %d read-set lines", id, n)
		}
		if n := tx.writes.Len(); n != 0 {
			return fmt.Errorf("sontm: thread %d leaked %d write-set lines", id, n)
		}
	}
	return nil
}

// noLine is the lastRead sentinel: no real line has this number, so a
// fresh transaction's first read always takes the set path.
const noLine = ^mem.Line(0)

// txn is one SONTM transaction attempt.
type txn struct {
	e  *Engine
	t  *sched.Thread
	h  *cache.Hierarchy
	id uint64

	lo, hi uint64 // SON interval, inclusive

	readSet aset.LineSet
	// lastRead memoises the line of the previous Read: the readSet
	// insert is idempotent and entries are never removed mid-transaction
	// (commit broadcasts only probe membership), so a repeat read of the
	// same line skips the set probe.
	lastRead mem.Line
	// writes buffers the speculative stores: line membership,
	// first-write order and the logged words in one structure. Commit
	// broadcasts probe it with a one-word signature AND in the common
	// miss case.
	writes aset.WriteLog

	// selfBit is this thread's presence bit (cache.CoreBit of its ID),
	// noted on every access so committers know this core may hold the
	// line.
	selfBit uint64
	// activeIdx is this transaction's slot in Engine.active while
	// in flight (swap-remove bookkeeping).
	activeIdx int

	doomed   bool
	doomLine mem.Line
	finished bool
	site     string
}

var _ tm.Txn = (*txn)(nil)

// Begin implements tm.Engine.
func (e *Engine) Begin(t *sched.Thread) tm.Txn {
	e.txnSeq++
	var tx *txn
	if old := e.lastTxn[t.ID()]; old != nil && old.finished {
		// The object's sets were Reset when it finished, keeping their
		// grown capacity. The thread object can differ across scheduler
		// runs even for the same thread ID, so it is rebound.
		old.t = t
		old.id = e.txnSeq
		old.lo, old.hi = 1, maxSON
		old.lastRead = noLine
		old.doomed, old.doomLine = false, 0
		old.finished = false
		old.site = ""
		tx = old
	} else {
		tx = &txn{
			e: e, t: t, h: e.hierarchy(t), id: e.txnSeq,
			lo: 1, hi: maxSON,
			lastRead: noLine,
			selfBit:  cache.CoreBit(t.ID()),
		}
		e.lastTxn[t.ID()] = tx
	}
	tx.activeIdx = len(e.active)
	e.active = append(e.active, tx)
	if e.tracer != nil {
		e.tracer.TxnBegin(tx.id, t.ID())
	}
	t.Tick(2)
	return tx
}

// Site implements tm.Txn.
func (x *txn) Site(s string) tm.Txn { x.site = s; return x }

// raiseLo raises the lower bound; the interval emptying dooms the txn.
func (x *txn) raiseLo(v uint64, line mem.Line) {
	if v > x.lo {
		x.lo = v
	}
	if x.lo > x.hi {
		x.doomed = true
		x.doomLine = line
	}
}

// clampHi lowers the upper bound; the interval emptying dooms the txn.
func (x *txn) clampHi(v uint64, line mem.Line) {
	if v < x.hi {
		x.hi = v
	}
	if x.lo > x.hi {
		x.doomed = true
		x.doomLine = line
	}
}

// checkDoom unwinds (via the tm abort signal) if the SON interval has
// emptied; used on the Read/Write paths.
func (x *txn) checkDoom() {
	if !x.doomed {
		return
	}
	x.abortDoomed()
	tm.SignalAbort(tm.AbortOrder, x.doomLine)
}

// abortDoomed finalises a doomed transaction and returns its abort error;
// used on the Commit path.
func (x *txn) abortDoomed() error {
	x.cleanup()
	x.e.stats.Count(tm.AbortOrder)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	return &tm.AbortError{Kind: tm.AbortOrder, Line: x.doomLine}
}

// Read implements tm.Txn: the transaction must serialize after the
// committed writer whose value it reads.
func (x *txn) Read(a mem.Addr) uint64 {
	x.checkDoom()
	line := mem.LineOf(a)
	// Note before the Tick: the fill happens when Access evaluates,
	// before the yield, so the presence record must be in place for any
	// commit that interleaves with the yield.
	x.e.presence.Note(line, x.selfBit)
	x.t.Tick(x.h.Access(line))
	if x.e.tracer != nil {
		x.e.tracer.TxnRead(x.id, a, x.site)
	}
	// The SON interval update reads the shared write-number table. The
	// read itself would be safe to batch (write numbers only change
	// inside writer commits), but SONTM can never publish interaction
	// slack: a writer commit charges its whole cost in one trailing
	// Tick, so the broadcast dooms peers at the committer's previous
	// park position — zero charge-distance after the park. Any nonzero
	// slack promise at Begin would let a peer batch past a doom that
	// logically precedes its reads. See DESIGN.md, "Horizon batching".
	x.t.Interact()
	if line != x.lastRead {
		x.readSet.Add(line)
		x.lastRead = line
	}
	x.raiseLo(x.e.writeNums.Load(uint64(line))+1, line)
	x.checkDoom()
	if v, ok := x.writes.Load(a); ok {
		return v
	}
	return x.e.words.Load(mem.WordIndex(a))
}

// ReadPromoted implements tm.Txn; SONTM is serializable, so it is an
// ordinary read.
func (x *txn) ReadPromoted(a mem.Addr) uint64 { return x.Read(a) }

// Write implements tm.Txn: the store is logged; the transaction must
// serialize after the last committed writer of the line.
func (x *txn) Write(a mem.Addr, v uint64) {
	x.checkDoom()
	line := mem.LineOf(a)
	x.e.presence.Note(line, x.selfBit)
	x.t.Tick(x.h.Access(line))
	if x.e.tracer != nil {
		x.e.tracer.TxnWrite(x.id, a, x.site)
	}
	x.t.Interact() // per event: no sound slack exists (see Read)
	x.writes.Store(a, v)
	x.raiseLo(x.e.writeNums.Load(uint64(line))+1, line)
	x.checkDoom()
}

// cleanup removes the transaction from the active list and resets its
// sets in O(touched), keeping capacity for the next incarnation.
func (x *txn) cleanup() {
	a := x.e.active
	last := len(a) - 1
	moved := a[last]
	a[x.activeIdx] = moved
	moved.activeIdx = x.activeIdx
	a[last] = nil
	x.e.active = a[:last]
	x.finished = true
	x.readSet.Reset()
	x.writes.Reset()
}

// Abort implements tm.Txn.
func (x *txn) Abort() {
	if x.finished {
		return
	}
	x.cleanup()
	x.e.stats.Count(tm.AbortExplicit)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	x.t.Tick(2)
}

// Commit implements tm.Txn: the transaction picks the smallest SON in its
// interval, serializes after committed readers of its write set, and
// broadcasts the write set so concurrent transactions adjust their own
// intervals (§6.1).
func (x *txn) Commit() error {
	if x.finished {
		panic("sontm: Commit on finished transaction")
	}
	if x.doomed {
		return x.abortDoomed()
	}
	if x.writes.Len() == 0 {
		// Readers commit with their interval; record their reads so
		// future writers serialize after them.
		son := x.lo
		for _, line := range x.readSet.Lines() {
			if rn := x.e.readNums.Slot(uint64(line)); son > *rn {
				*rn = son
			}
		}
		x.cleanup()
		x.e.stats.Commits++
		x.e.stats.ReadOnly++
		if x.e.tracer != nil {
			x.e.tracer.TxnCommit(x.id)
		}
		x.t.Tick(2)
		return nil
	}

	// Unlike the 2PL baseline, SONTM detects conflicts eagerly during
	// execution, so commits of different transactions have disjoint
	// effects and need no token: the commit's hashing, broadcast and
	// write-back overheads are accumulated and charged to the thread
	// without serializing other committers behind it.
	var cost uint64 = x.e.cfg.CommitOverhead

	// Serialize after every committed reader of the lines we write
	// (the read-history check); the scan cost grows with the number of
	// retained readsets, which tracks concurrency.
	for _, line := range x.writes.Lines() {
		cost += x.e.cfg.BroadcastCost + x.e.cfg.HistoryCheckCost*uint64(len(x.e.active))
		x.raiseLo(x.e.readNums.Load(uint64(line))+1, line)
	}
	// Writers occupy the next sonGap multiple above their lower bound,
	// leaving room below for overlapping readers to serialize.
	son := (x.lo/sonGap + 1) * sonGap
	if x.doomed || son > x.hi {
		x.doomed = true
		return x.abortDoomed()
	}

	// Broadcast the write set: concurrent readers of these lines must
	// serialize before us; concurrent writers after us. These effects
	// execute at the park position of the transaction's LAST access —
	// the commit cost is charged in one trailing Tick below — which is
	// why SONTM threads can never promise interaction slack: the doom
	// lands at charge-distance zero from a park. Splitting the charge
	// to land effects later (as core does) would move the broadcast to
	// a different simulated cycle and change figure bytes.
	x.t.Interact() // interval broadcast + write-back: per-event interactions
	for _, line := range x.writes.Lines() {
		for _, other := range x.e.active {
			if other == x || other.finished {
				continue
			}
			// A transaction that wrote the line must serialize
			// after us; one that read it must serialize before
			// us. A read-modify-write needs both and its
			// interval empties — exactly the Kmeans pattern the
			// paper notes CS cannot help with.
			if other.writes.Has(line) {
				other.raiseLo(son+1, line)
			}
			if other.readSet.Contains(line) {
				other.clampHi(son-1, line)
			}
		}
	}

	// Write back and tag committed writes with the SON in the global
	// write-numbers hashtable.
	for i := 0; i < x.writes.Len(); i++ {
		line, w := x.writes.At(i)
		for word := 0; word < mem.WordsPerLine; word++ {
			if w.Mask&(1<<word) != 0 {
				x.e.words.Store(mem.WordIndex(mem.WordAddr(line, word)), w.Words[word])
			}
		}
	}
	for _, line := range x.writes.Lines() {
		// Re-note: another commit may have drained this core's bit, and
		// the Access below re-fills the line.
		x.e.presence.Note(line, x.selfBit)
		cost += x.h.Access(line) + x.e.cfg.HashCost
		if wn := x.e.writeNums.Slot(uint64(line)); son > *wn {
			*wn = son
		}
		// SONTM never performs versioned accesses, so only the data
		// caches can hold the line; invalidate exactly the cores the
		// presence filter says may hold it.
		for others := x.e.presence.Drain(line, x.selfBit); others != 0; {
			id := bits.TrailingZeros64(others)
			others &^= 1 << uint(id)
			x.e.hiers[id].InvalidateData(line)
		}
		for id := 64; id < len(x.e.hiers); id++ {
			if h := x.e.hiers[id]; h != nil && id != x.t.ID() {
				h.InvalidateData(line)
			}
		}
	}
	for _, line := range x.readSet.Lines() {
		if rn := x.e.readNums.Slot(uint64(line)); son > *rn {
			*rn = son
		}
	}
	x.cleanup()
	x.e.stats.Commits++
	if x.e.tracer != nil {
		x.e.tracer.TxnCommit(x.id)
	}
	x.t.Tick(cost)
	return nil
}
