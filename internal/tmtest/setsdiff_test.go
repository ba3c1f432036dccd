package tmtest_test

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/tm"
)

// setModel is a map-based model of an engine's access sets. It sits
// between the workload and the engine, forwards every call unchanged, and
// keeps its own Go-map write log per transaction attempt, so it knows —
// independently of the engine's aset tables — what each transaction
// wrote, what it must read back, and what a commit must publish.
type setModel struct {
	tm.Engine
	t               *testing.T
	begins, commits uint64
	readOnly        uint64
	// delta is the sum over committed transactions of (value written −
	// value the transaction read there) over every written word: the
	// change the committed write logs make to the sum of memory.
	delta uint64
}

type modelTxn struct {
	tm.Txn
	m      *setModel
	writes map[mem.Addr]uint64 // this attempt's write log
	seen   map[mem.Addr]uint64 // value first read at each address
}

func (m *setModel) Begin(th *sched.Thread) tm.Txn {
	m.begins++
	return &modelTxn{
		Txn:    m.Engine.Begin(th),
		m:      m,
		writes: make(map[mem.Addr]uint64),
		seen:   make(map[mem.Addr]uint64),
	}
}

func (x *modelTxn) Read(a mem.Addr) uint64 {
	v := x.Txn.Read(a)
	if w, ok := x.writes[a]; ok && v != w {
		x.m.t.Errorf("read of %#x returned %d, but the transaction wrote %d there", uint64(a), v, w)
	}
	if _, ok := x.seen[a]; !ok {
		x.seen[a] = v
	}
	return v
}

func (x *modelTxn) Write(a mem.Addr, v uint64) {
	if _, ok := x.seen[a]; !ok {
		x.m.t.Fatalf("blind write to %#x: the model needs every written word read first", uint64(a))
	}
	x.Txn.Write(a, v)
	x.writes[a] = v
}

func (x *modelTxn) Commit() error {
	err := x.Txn.Commit()
	if err != nil {
		return err
	}
	x.m.commits++
	if len(x.writes) == 0 {
		x.m.readOnly++
	}
	for a, v := range x.writes {
		x.m.delta += v - x.seen[a]
	}
	return nil
}

func (x *modelTxn) Site(s string) tm.Txn {
	x.Txn.Site(s)
	return x
}

// TestAccessSetDifferential pins the signature-backed access tracking
// (internal/aset) at the engine level against a map-based model of the
// same transactions: for every registered engine, across thread counts
// and seeds, reads return the transaction's own buffered writes, the
// engine counts exactly the commits with an empty model write set as
// read-only, every attempt the model saw begin either commits or is
// counted as an abort, and the committed model write logs account for
// the final memory exactly (no write-back lost or duplicated). The
// modelled run must also be bit-identical to an unobserved one, so the
// model checks the run the figures use. The per-structure property tests
// live in internal/aset and the report-level digests in internal/harness.
func TestAccessSetDifferential(t *testing.T) {
	const accounts, initial = 6, 100 // runWrappedWorkload's bank
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 2, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					var m *setModel
					wrap := func(e tm.Engine) tm.Engine {
						m = &setModel{Engine: e, t: t}
						return m
					}
					fast := runEngineWorkload(t, name, tm.EngineOptions{}, threads, seed, (*sched.Sim).Run)
					modelled := runWrappedWorkload(t, name, tm.EngineOptions{}, wrap, threads, seed, (*sched.Sim).Run)
					if fast != modelled {
						t.Errorf("unobserved run %+v\nmodelled run %+v", fast, modelled)
					}
					st := modelled.stats
					if st.Commits != m.commits || st.ReadOnly != m.readOnly {
						t.Errorf("engine counted %d commits (%d read-only), model %d (%d read-only)",
							st.Commits, st.ReadOnly, m.commits, m.readOnly)
					}
					if got := st.Commits + st.TotalAborts(); got != m.begins {
						t.Errorf("engine counted %d commits + aborts, model saw %d attempts", got, m.begins)
					}
					if want := uint64(accounts*initial) + m.delta; modelled.sum != want {
						t.Errorf("final memory sums to %d, committed model write logs give %d", modelled.sum, want)
					}
				})
			}
		}
	}
}

// accessSetAuditor is implemented by engines that can verify no access-set
// state outlives its transaction (empty slabs and reader tables at
// quiescence).
type accessSetAuditor interface {
	AuditAccessSets() error
}

// TestAccessSetQuiescence audits the access-set lifecycle for every
// registered engine: after a workload drains, no live read/write-set
// entries and no live reader-table records may remain. A leak here means a
// recycled transaction could observe a predecessor's accesses — the class
// of bug the epoch stamps exist to prevent — or that set memory grows
// without bound across transactions.
func TestAccessSetQuiescence(t *testing.T) {
	for _, name := range tm.Engines() {
		for _, threads := range []int{1, 4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/t%d/s%d", name, threads, seed), func(t *testing.T) {
					e, err := tm.NewEngine(name, tm.EngineOptions{})
					if err != nil {
						t.Fatalf("constructing %s: %v", name, err)
					}
					auditor, ok := e.(accessSetAuditor)
					if !ok {
						t.Fatalf("%s does not implement AuditAccessSets", name)
					}
					const accounts = 6
					addr := func(i int) mem.Addr { return mem.Addr((i + 1) * mem.LineBytes) }
					for i := 0; i < accounts; i++ {
						e.NonTxWrite(addr(i), 100)
					}
					s := sched.New(threads, seed)
					s.Run(func(th *sched.Thread) {
						r := th.Rand()
						for i := 0; i < 30; i++ {
							_ = tm.Atomic(e, th, tm.DefaultBackoff(), func(tx tm.Txn) error {
								a, b := addr(r.Intn(accounts)), addr(r.Intn(accounts))
								v := tx.Read(a)
								if r.Uint64()%4 == 0 {
									return nil // read-only
								}
								tx.Write(b, v+1)
								return nil
							})
						}
					})
					if err := auditor.AuditAccessSets(); err != nil {
						t.Errorf("%s leaked access-set state: %v", name, err)
					}
				})
			}
		}
	}
}
