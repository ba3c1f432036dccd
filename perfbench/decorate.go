package main

import (
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/txlib"
)

// cellSpans is what the decorator records for one executed cell: the host
// time of each workload phase and the engine counters the cell result
// does not carry.
type cellSpans struct {
	// pkg is the workload's package (micro, stamp or oltp).
	pkg string
	// setup spans Workload.Setup; simulate spans the scheduler run, from
	// Setup's return to Validate's entry (Run is called once per simulated
	// thread, on coroutines, inside it); validate spans Workload.Validate.
	setup, simulate, validate time.Duration

	// stalls and backoff (simulated cycles) are tm.Stats fields the cell
	// result leaves out.
	stalls, backoff uint64
	cache           cache.Stats
}

// collector gathers the spans of every cell a round executes. Cells run on
// the experiment worker pool, so add is called concurrently.
type collector struct {
	mu    sync.Mutex
	spans []cellSpans
}

func (c *collector) add(s cellSpans) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// resolve is an exp.CellRunner.Resolve: it resolves the workload through
// the harness registry and wraps every instance in a timing decorator.
func (c *collector) resolve(name string) (func() exp.Workload, error) {
	f, err := harness.WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	return func() exp.Workload {
		w := f()
		return &timedWorkload{Workload: w, col: c, spans: cellSpans{pkg: workloadPackage(w)}}
	}, nil
}

// workloadPackage names the repro/internal package that defines w.
func workloadPackage(w exp.Workload) string {
	t := reflect.TypeOf(w)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return strings.TrimPrefix(t.PkgPath(), "repro/internal/")
}

// cacheStatser is the engine surface that exposes aggregate simulated
// cache counters; all three engines implement it.
type cacheStatser interface{ CacheStats() cache.Stats }

// timedWorkload decorates an exp.Workload with host-time spans. It changes
// nothing the simulation sees, so figure bytes are identical with and
// without it (TestDecoratedBytesIdentical).
type timedWorkload struct {
	exp.Workload
	col      *collector
	simStart time.Time
	spans    cellSpans
}

// Scale forwards exp.Scalable, which exp.ExecuteCell detects by type
// assertion on the value the factory returns.
func (w *timedWorkload) Scale(factor int) {
	if s, ok := w.Workload.(exp.Scalable); ok {
		s.Scale(factor)
	}
}

func (w *timedWorkload) Setup(m *txlib.Mem, threads int) {
	start := time.Now()
	w.Workload.Setup(m, threads)
	w.simStart = time.Now()
	w.spans.setup = w.simStart.Sub(start)
}

// Validate closes the simulate span and reads the engine's counters: it is
// the last workload call before exp.ExecuteCell releases the engine's
// simulated caches.
func (w *timedWorkload) Validate(m *txlib.Mem) string {
	start := time.Now()
	w.spans.simulate = start.Sub(w.simStart)
	st := m.E.Stats()
	w.spans.stalls, w.spans.backoff = st.Stalls, st.BackoffNs
	if cs, ok := m.E.(cacheStatser); ok {
		w.spans.cache = cs.CacheStats()
	}
	msg := w.Workload.Validate(m)
	w.spans.validate = time.Since(start)
	w.col.add(w.spans)
	return msg
}
