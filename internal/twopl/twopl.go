// Package twopl implements the paper's first baseline (§6.1): a
// state-of-the-art HTM with two-phase-locking semantics — eager conflict
// detection with a "requester wins" policy and lazy version management.
//
// Conflicts are detected at every transactional access, modelling the
// coherency broadcast: a transactional read sends a get-shared message
// that aborts any other transaction holding the line in its write set; a
// transactional write sends a get-exclusive message that aborts every
// other reader and writer of the line. Read and write sets are perfect
// (no-false-positive) bloom filters, modelled as exact sets. Commits
// serialize on a commit token and write the speculative write log back to
// memory; aborts discard the logs and restart in software.
//
// Access tracking uses the signature-backed tables of internal/aset:
// the write log is an aset.WriteLog, and per-line reader/writer holds are
// epoch-stamped records that a finished or recycled transaction
// invalidates all at once, so begin/commit/abort never walk the line
// table.
package twopl

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
	// BroadcastCost is the per-access cycle cost of the coherency
	// broadcast used for eager conflict detection.
	BroadcastCost uint64
	// CommitOverhead is the fixed cost of acquiring the commit token.
	CommitOverhead uint64
	// VersionBufferLines bounds the speculative write set: conventional
	// HTMs use the L1 cache as the version buffer and abort on
	// overflow (§4.3 — Haswell aborts transactions touching more than
	// its L1 can hold, sometimes after only 9 writes due to
	// associativity). 0 models an idealised unbounded buffer.
	VersionBufferLines int
	// InterruptPeriod injects an interrupt every N transactional
	// accesses engine-wide; a cache-buffered transaction cannot
	// survive a context switch, so the transaction running on the
	// interrupted thread aborts (§1, §4.3). 0 disables injection.
	InterruptPeriod int
	// InterruptCost is the handler overhead charged per interrupt.
	InterruptCost uint64
}

// DefaultConfig returns the evaluated configuration: idealised unbounded
// version buffers and no interrupts, matching the paper's baseline model.
func DefaultConfig() Config {
	return Config{Cache: cache.DefaultConfig(), BroadcastCost: 2, CommitOverhead: 10, InterruptCost: 200}
}

// noLine is the lastRead sentinel: no real line has this number, so a
// fresh transaction's first read always takes the set path.
const noLine = ^mem.Line(0)

// lineState tracks which transactions hold a line transactionally. The
// writer hold is valid only while (writer.epoch == wEpoch &&
// !writer.finished); reader records carry the same epoch validation
// inside aset.Readers. Finishing a transaction therefore releases every
// hold it had without touching this table.
type lineState struct {
	writer  *txn
	wEpoch  uint64
	readers aset.Readers[*txn]
}

// Engine is the 2PL baseline.
type Engine struct {
	cfg    Config
	shared *cache.Shared
	// hiers holds each core's private hierarchy, indexed by thread ID
	// (IDs are dense, 0..n-1); nil until the thread first begins.
	hiers  []*cache.Hierarchy
	stats  tm.Stats
	tracer tm.Tracer

	// presence filters commit-time invalidation: instead of broadcasting
	// every written line to every other core, only cores that actually
	// accessed the line since it was last invalidated are visited. The
	// skipped invalidations are no-ops (see cache.Presence), so the
	// filtered publish is observably identical.
	presence cache.Presence

	// words and lines are paged tables keyed by word/line number: the
	// simulated address space is dense (bump allocated), and these sit
	// on the per-access hot path where a map hash dominated. The paged
	// backing keeps the heap proportional to touched lines at
	// serving-scale footprints.
	words  mem.Paged[uint64]
	lines  mem.Paged[lineState]
	txnSeq uint64

	// lastTxn recycles each thread's most recent transaction object:
	// finishing a transaction invalidates its epoch-stamped line holds,
	// so the object — and its already-grown access sets — can be reused
	// without a fresh allocate-and-rehash cycle.
	lastTxn    map[int]*txn
	liveReader func(*txn, uint64) bool

	commitBusy  bool
	accessCount int
}

// New creates a 2PL engine.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		shared:   cache.NewShared(cfg.Cache),
		lastTxn:  make(map[int]*txn),
		presence: cache.NewPresence(cfg.Cache.Scratch),
	}
	e.liveReader = e.readerLive
	return e
}

// Name implements tm.Engine.
func (e *Engine) Name() string { return "2PL" }

// Stats implements tm.Engine.
func (e *Engine) Stats() *tm.Stats { return &e.stats }

// Promote implements tm.Engine. 2PL already aborts on read-write
// conflicts, so promotion is a no-op: serializability needs no repair.
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
// a running transaction: recycled transaction objects hold empty sets and
// no line records a live reader or writer. tmtest calls it after each
// conformance cell.
//
//sitm:allow(yieldlint) quiescent audit scan, runs after every simulated thread has finished
func (e *Engine) AuditAccessSets() error {
	for id, tx := range e.lastTxn {
		if tx == nil {
			continue
		}
		if !tx.finished {
			return fmt.Errorf("twopl: thread %d transaction unfinished", id)
		}
		if n := tx.writes.Len(); n != 0 {
			return fmt.Errorf("twopl: thread %d leaked %d write-log lines", id, n)
		}
		if n := tx.reads.Len(); n != 0 {
			return fmt.Errorf("twopl: thread %d leaked %d read-set lines", id, n)
		}
	}
	var auditErr error
	e.lines.Range(func(i uint64, st *lineState) {
		if auditErr != nil {
			return
		}
		if w := st.writer; w != nil && w.epoch == st.wEpoch && !w.finished {
			auditErr = fmt.Errorf("twopl: line %d holds a live writer after quiescence", i)
			return
		}
		st.readers.Compact(e.liveReader)
		if n := st.readers.Len(); n != 0 {
			auditErr = fmt.Errorf("twopl: line %d holds %d live reader records after quiescence", i, n)
		}
	})
	return auditErr
}

// readerLive is the liveness predicate of reader records: live while the
// object has not been recycled (epoch match) and the transaction has not
// finished.
func (e *Engine) readerLive(r *txn, epoch uint64) bool {
	return r.epoch == epoch && !r.finished
}

// txn is one 2PL transaction attempt.
type txn struct {
	e  *Engine
	t  *sched.Thread
	h  *cache.Hierarchy
	id uint64
	// epoch distinguishes incarnations of a recycled transaction object:
	// line holds carry the epoch they were made under, so recycling
	// releases all of an object's holds without walking the line table.
	epoch uint64

	// reads dedups this transaction's reader registrations: one record
	// per line regardless of how often the line is read.
	reads aset.LineSet
	// lastRead memoises the line of the previous Read: registration is
	// idempotent and never revoked mid-transaction, so a repeat read of
	// the same line (sequential word scans hit the same line eight
	// times) can skip the set probe entirely.
	lastRead mem.Line
	// writes buffers the speculative stores: line membership,
	// first-write order and the logged words in one structure.
	writes aset.WriteLog

	// selfBit is this thread's presence bit (cache.CoreBit of its ID),
	// noted on every access so committers know this core may hold the
	// line.
	selfBit uint64

	doomed   bool
	doomKind tm.AbortKind
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
		// grown capacity; bumping the epoch releases any line holds the
		// previous incarnation left behind. The thread object can
		// differ across scheduler runs even for the same thread ID, so
		// it is rebound.
		old.t = t
		old.id = e.txnSeq
		old.epoch++
		old.lastRead = noLine
		old.doomed, old.doomKind, old.doomLine = false, 0, 0
		old.finished = false
		old.site = ""
		tx = old
	} else {
		tx = &txn{
			e: e, t: t, h: e.hierarchy(t), id: e.txnSeq,
			epoch:    1,
			lastRead: noLine,
			selfBit:  cache.CoreBit(t.ID()),
		}
		e.lastTxn[t.ID()] = tx
	}
	if e.tracer != nil {
		e.tracer.TxnBegin(tx.id, t.ID())
	}
	t.Tick(2)
	return tx
}

// Site implements tm.Txn.
func (x *txn) Site(s string) tm.Txn { x.site = s; return x }

// doom marks a victim transaction aborted; the requester always wins.
func (x *txn) doom(kind tm.AbortKind, line mem.Line) {
	if !x.doomed {
		x.doomed = true
		x.doomKind = kind
		x.doomLine = line
	}
}

// checkDoom unwinds the transaction (via the tm abort signal) if a
// requester doomed it; used on the Read/Write paths.
func (x *txn) checkDoom() {
	if !x.doomed {
		return
	}
	x.abortDoomed()
	tm.SignalAbort(x.doomKind, x.doomLine)
}

// abortDoomed finalises a doomed transaction and returns its abort error;
// used on the Commit path, which reports aborts as error values.
func (x *txn) abortDoomed() error {
	x.cleanup()
	x.e.stats.Count(x.doomKind)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	return &tm.AbortError{Kind: x.doomKind, Line: x.doomLine}
}

// maybeInterrupt injects a periodic interrupt: a cache-buffered
// transaction cannot survive the context switch and aborts (§4.3).
func (x *txn) maybeInterrupt(line mem.Line) {
	if x.e.cfg.InterruptPeriod <= 0 {
		return
	}
	x.e.accessCount++
	if x.e.accessCount%x.e.cfg.InterruptPeriod != 0 {
		return
	}
	x.t.Tick(x.e.cfg.InterruptCost)
	x.cleanup()
	x.e.stats.Count(tm.AbortInterrupt)
	if x.e.tracer != nil {
		x.e.tracer.TxnAbort(x.id)
	}
	tm.SignalAbort(tm.AbortInterrupt, line)
}

// liveWriter returns the line's current writer, clearing a hold whose
// transaction finished or was recycled (the lazy counterpart of the
// eager slot clear the map-based cleanup performed).
func (st *lineState) liveWriter() *txn {
	if w := st.writer; w != nil {
		if w.epoch == st.wEpoch && !w.finished {
			return w
		}
		st.writer = nil
	}
	return nil
}

// Read implements tm.Txn: a get-shared broadcast aborts any conflicting
// writer ("requester wins"), then the line joins the read set.
func (x *txn) Read(a mem.Addr) uint64 {
	x.checkDoom()
	line := mem.LineOf(a)
	x.maybeInterrupt(line)
	// Note before the Tick: the fill happens when Access evaluates,
	// before the yield, so the presence record must be in place for any
	// commit that interleaves with the yield.
	x.e.presence.Note(line, x.selfBit)
	x.t.Tick(x.h.Access(line) + x.e.cfg.BroadcastCost)
	if x.e.tracer != nil {
		x.e.tracer.TxnRead(x.id, a, x.site)
	}
	// Eager conflict detection reads and writes the shared line table on
	// every access: 2PL interacts per event and can never batch.
	x.t.Interact()
	st := x.e.lines.Slot(uint64(line))
	if w := st.liveWriter(); w != nil && w != x {
		w.doom(tm.AbortReadWrite, line)
	}
	if line != x.lastRead {
		if x.reads.Add(line) {
			st.readers.CompactAdd(x, x.epoch, x.e.liveReader)
		}
		x.lastRead = line
	}
	if v, ok := x.writes.Load(a); ok {
		return v
	}
	return x.e.words.Load(mem.WordIndex(a))
}

// ReadPromoted implements tm.Txn; under 2PL it is an ordinary read.
func (x *txn) ReadPromoted(a mem.Addr) uint64 { return x.Read(a) }

// Write implements tm.Txn: a get-exclusive broadcast aborts every other
// reader and writer of the line, then the store is logged.
func (x *txn) Write(a mem.Addr, v uint64) {
	x.checkDoom()
	line := mem.LineOf(a)
	x.maybeInterrupt(line)
	x.e.presence.Note(line, x.selfBit)
	x.t.Tick(x.h.Access(line) + x.e.cfg.BroadcastCost)
	if x.e.tracer != nil {
		x.e.tracer.TxnWrite(x.id, a, x.site)
	}
	// Version-buffer overflow (§4.3): the L1-resident speculative state
	// cannot exceed the buffer; the transaction aborts.
	if n := x.e.cfg.VersionBufferLines; n > 0 {
		if !x.writes.Has(line) && x.writes.Len() >= n {
			x.cleanup()
			x.e.stats.Count(tm.AbortCapacity)
			if x.e.tracer != nil {
				x.e.tracer.TxnAbort(x.id)
			}
			tm.SignalAbort(tm.AbortCapacity, line)
		}
	}
	x.t.Interact() // get-exclusive broadcast: per-event interaction
	st := x.e.lines.Slot(uint64(line))
	if w := st.liveWriter(); w != nil && w != x {
		w.doom(tm.AbortWriteWrite, line)
	}
	for _, ent := range st.readers.Entries() {
		if r := ent.Tx; r != x && r.epoch == ent.Epoch && !r.finished {
			r.doom(tm.AbortReadWrite, line)
		}
	}
	st.writer = x
	st.wEpoch = x.epoch
	x.writes.Store(a, v)
}

// cleanup releases the transaction's line holds and resets its sets.
// Setting finished invalidates every reader/writer record the
// transaction made (they are epoch-and-liveness validated), so no table
// walk is needed.
func (x *txn) cleanup() {
	x.finished = true
	x.writes.Reset()
	x.reads.Reset()
}

// Abort implements tm.Txn: read and write logs are discarded and the
// transaction restarts in software (§6.1).
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

// Commit implements tm.Txn: the thread obtains the commit token, iterates
// over its write log and commits the speculative writes to main memory
// (§6.1).
func (x *txn) Commit() error {
	if x.finished {
		panic("twopl: Commit on finished transaction")
	}
	if x.doomed {
		return x.abortDoomed()
	}
	if x.writes.Len() == 0 {
		x.cleanup()
		x.e.stats.Commits++
		x.e.stats.ReadOnly++
		if x.e.tracer != nil {
			x.e.tracer.TxnCommit(x.id)
		}
		x.t.Tick(2)
		return nil
	}
	for x.e.commitBusy {
		x.e.stats.Stalls++
		x.t.Stall()
		if x.doomed {
			return x.abortDoomed()
		}
	}
	x.e.commitBusy = true
	x.t.Tick(x.e.cfg.CommitOverhead)
	if x.doomed { // a requester may have doomed us while ticking
		x.e.commitBusy = false
		x.t.WakeAll()
		return x.abortDoomed()
	}
	x.t.Interact() // write-back + invalidations: per-event interactions
	for i := 0; i < x.writes.Len(); i++ {
		line, w := x.writes.At(i)
		for word := 0; word < mem.WordsPerLine; word++ {
			if w.Mask&(1<<word) != 0 {
				x.e.words.Store(mem.WordIndex(mem.WordAddr(line, word)), w.Words[word])
			}
		}
	}
	for _, line := range x.writes.Lines() {
		// Re-note: another commit may have drained this core's bit
		// while we were stalled, and the Access below re-fills the line.
		x.e.presence.Note(line, x.selfBit)
		x.t.Tick(x.h.Access(line))
		// 2PL never performs versioned accesses, so only the data
		// caches can hold the line (the translation caches and MVM
		// partition are never filled); invalidate exactly the cores the
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
	x.e.commitBusy = false
	x.cleanup()
	x.e.stats.Commits++
	if x.e.tracer != nil {
		x.e.tracer.TxnCommit(x.id)
	}
	x.t.WakeAll()
	return nil
}
