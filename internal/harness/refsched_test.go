package harness

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exp"
	"repro/internal/sched"
)

// figureBytes renders Figure 7 and Figure 8 for a restricted workload set
// and returns the raw table bytes.
func figureBytes(o Options) []byte {
	var buf bytes.Buffer
	Figure7(&buf, o)
	Figure8(&buf, o)
	return buf.Bytes()
}

// conductorSweep is one Figure 7/8 sweep's bytes and summed conductor
// counters.
type conductorSweep struct {
	bytes []byte
	stats sched.Stats
}

// conductorSweeps runs the restricted Figure 7/8 sweep once under the
// batched heap conductor and once under the reference linear-scan
// conductor, which schedules strictly per event. The two report-level
// conductor gates share the result.
var conductorSweeps = sync.OnceValues(func() (batched, reference conductorSweep) {
	sweep := func(refSched bool) conductorSweep {
		var sw conductorSweep
		var mu sync.Mutex
		o := Options{Seeds: []uint64{1}, Only: []string{"List"}, refSched: refSched,
			CellDone: func(_ exp.Cell, res exp.CellResult) {
				mu.Lock()
				sw.stats.Add(res.Sched)
				mu.Unlock()
			}}
		sw.bytes = figureBytes(o)
		return sw
	}
	return sweep(false), sweep(true)
})

// TestFiguresByteIdenticalFastVsSlow is the acceptance gate for the
// scheduler fast path at the report level: the Figure 7 and Figure 8
// tables must be byte-identical whether the cells run under the batched
// heap conductor or the reference linear-scan conductor. The per-trace
// differential tests live in internal/sched; this one proves the property
// survives engines, workloads, seed averaging and table rendering.
func TestFiguresByteIdenticalFastVsSlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full figure sweeps")
	}
	fast, slow := conductorSweeps()
	if !bytes.Equal(fast.bytes, slow.bytes) {
		t.Fatalf("figure output diverges between conductors:\n--- fast ---\n%s\n--- slow ---\n%s", fast.bytes, slow.bytes)
	}
}

// TestFiguresByteIdenticalBatchedVsPerEvent is the acceptance gate for
// horizon batching at the report level: the same two sweeps, read as
// batched against per-event (the reference conductor charges every event
// separately), must be byte-identical, and batching must actually have
// engaged — the batched sweep must report batched events and strictly
// fewer coroutine switches than the per-event one, or the byte gate would
// pass vacuously.
func TestFiguresByteIdenticalBatchedVsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full figure sweeps")
	}
	batched, perEvent := conductorSweeps()
	if !bytes.Equal(batched.bytes, perEvent.bytes) {
		t.Fatalf("figure output diverges between batched and per-event conductors:\n--- batched ---\n%s\n--- per-event ---\n%s", batched.bytes, perEvent.bytes)
	}
	if batched.stats.BatchedEvents == 0 {
		t.Fatalf("batched sweep ran no batched events: %+v", batched.stats)
	}
	if perEvent.stats.BatchedEvents != 0 {
		t.Fatalf("per-event sweep batched %d events", perEvent.stats.BatchedEvents)
	}
	if batched.stats.CoroutineSwitches >= perEvent.stats.CoroutineSwitches {
		t.Fatalf("batched sweep switched %d times, per-event %d: batching should reduce switches",
			batched.stats.CoroutineSwitches, perEvent.stats.CoroutineSwitches)
	}
}

// TestCellDoneReportsSimulatedCycles checks the benchmark hook: every
// cell reports its makespan, the totals are deterministic, and the sum
// matches the per-result makespans the report aggregates.
func TestCellDoneReportsSimulatedCycles(t *testing.T) {
	run := func() (uint64, uint64) {
		var cells, cycles atomic.Uint64
		o := Options{Seeds: []uint64{1, 2}, CellDone: func(_ exp.Cell, res exp.CellResult) {
			cells.Add(1)
			cycles.Add(res.SimCycles)
		}}
		f, err := WorkloadByName("Array")
		if err != nil {
			t.Fatal(err)
		}
		Run(SITM, f, 4, o)
		return cells.Load(), cycles.Load()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != 2 {
		t.Fatalf("CellDone fired %d times, want 2 (one per seed)", c1)
	}
	if s1 == 0 {
		t.Fatal("CellDone reported zero simulated cycles")
	}
	if c1 != c2 || s1 != s2 {
		t.Fatalf("CellDone totals nondeterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}
