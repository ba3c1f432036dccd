package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/mvm"
	"repro/internal/sched"
	"repro/internal/sontm"
	"repro/internal/tm"
	"repro/internal/twopl"
)

// benchSection is the benchmark record of one figure or table sweep: its
// wall-clock cost and the simulated work it got through. The simulated
// throughput (Mcycles/s) is the sum of every cell's makespan divided by
// the section's wall time, so it reflects the whole pipeline — setup,
// simulation and rendering — not just the simulator inner loop.
type benchSection struct {
	Name             string  `json:"name"`
	Cells            uint64  `json:"cells"`
	WallSeconds      float64 `json:"wall_seconds"`
	SimCycles        uint64  `json:"sim_cycles"`
	SimMcyclesPerSec float64 `json:"sim_mcycles_per_sec"`
	// PeakHeapBytes is the live heap (runtime.MemStats.HeapAlloc) when
	// the section finished, and TotalAllocs the heap allocations the
	// section performed (Mallocs delta across the section). The pair is
	// the footprint trajectory: serving-scale sweeps must show heap
	// proportional to touched lines, not address span.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	TotalAllocs   uint64 `json:"total_allocs"`
}

// benchHotPath is the measurement of one simulator hot path, taken with
// testing.Benchmark at report time.
type benchHotPath struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the -json artefact (BENCH_PR3.json). The schema is
// documented in EXPERIMENTS.md ("Benchmark trajectory").
type benchReport struct {
	Command    string `json:"command"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// GitRevision is the revision the binary was built from (build-info
	// VCS stamp, falling back to asking git about the build tree;
	// "unknown" outside a git checkout, with a "-dirty" suffix when the
	// working tree has uncommitted changes).
	GitRevision string         `json:"git_revision"`
	Workers     int            `json:"workers"`
	Seeds       []uint64       `json:"seeds"`
	Sections    []benchSection `json:"sections"`
	// SchedStats sums the deterministic conductor counters over every
	// cell of the invocation: coroutine switches, inline ticks,
	// horizon-batched events and local (uncontended) ticks.
	SchedStats sched.Stats    `json:"sched_stats"`
	HotPaths   []benchHotPath `json:"hot_paths"`
}

// benchCollector accumulates per-cell simulated cycles (fed concurrently
// by the harness CellDone hook) and section wall times.
type benchCollector struct {
	report      benchReport
	cells       atomic.Uint64
	simCycles   atomic.Uint64
	started     time.Time
	baseMallocs uint64 // runtime.MemStats.Mallocs at section begin

	mu    sync.Mutex  // guards sched
	sched sched.Stats // conductor counters summed over all cells
}

// newBenchCollector starts a collector describing the current invocation.
func newBenchCollector(workers int, seeds []uint64) *benchCollector {
	args := append([]string{filepath.Base(os.Args[0])}, os.Args[1:]...)
	return &benchCollector{report: benchReport{
		Command:     strings.Join(args, " "),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GitRevision: exp.CurrentGitRevision(),
		Workers:     workers,
		Seeds:       seeds,
	}}
}

// cellDone is the harness CellDone hook; safe for concurrent calls.
func (b *benchCollector) cellDone(_ exp.Cell, res exp.CellResult) {
	b.cells.Add(1)
	b.simCycles.Add(res.SimCycles)
	b.mu.Lock()
	b.sched.Add(res.Sched)
	b.mu.Unlock()
}

// begin opens a section: zeroes the cell counters and stamps the clock.
// Safe on a nil collector (no -json), like end.
func (b *benchCollector) begin() {
	if b == nil {
		return
	}
	b.cells.Store(0)
	b.simCycles.Store(0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.baseMallocs = ms.Mallocs
	b.started = time.Now()
}

// end closes the section opened by begin and records it under name.
func (b *benchCollector) end(name string) {
	if b == nil {
		return
	}
	wall := time.Since(b.started).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := benchSection{
		Name:          name,
		Cells:         b.cells.Load(),
		WallSeconds:   wall,
		SimCycles:     b.simCycles.Load(),
		PeakHeapBytes: ms.HeapAlloc,
		TotalAllocs:   ms.Mallocs - b.baseMallocs,
	}
	if wall > 0 {
		s.SimMcyclesPerSec = float64(s.SimCycles) / wall / 1e6
	}
	b.report.Sections = append(b.report.Sections, s)
}

// write measures the hot paths and writes the JSON artefact.
func (b *benchCollector) write(path string) error {
	b.mu.Lock()
	b.report.SchedStats = b.sched
	b.mu.Unlock()
	b.report.HotPaths = measureHotPaths()
	data, err := json.MarshalIndent(&b.report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measureHotPaths benchmarks the allocation-free hot paths the benchmark
// trajectory pins — the scheduler Tick fast path, the MVM steady-state
// Install, the memory-hierarchy way-predicted probes and each TM engine's
// full-commit transaction path — with the same shapes as the package
// benchmarks (BenchmarkTick in internal/sched, BenchmarkInstall in
// internal/mvm, BenchmarkAccess/BenchmarkAccessVersioned in
// internal/cache, BenchmarkCommit/hit in each engine package).
func measureHotPaths() []benchHotPath {
	tick := testing.Benchmark(func(b *testing.B) {
		s := sched.New(2, 1)
		b.ReportAllocs()
		b.ResetTimer()
		s.Run(func(th *sched.Thread) {
			if th.ID() == 0 {
				for i := 0; i < b.N; i++ {
					th.Tick(1)
				}
			} else {
				th.Tick(uint64(b.N) + 2)
			}
		})
	})
	install := testing.Benchmark(func(b *testing.B) {
		clk := clock.New()
		active := clock.NewActiveTable()
		m := mvm.New(mvm.DefaultConfig(), clk, active)
		const line = mem.Line(1)
		var words [mem.WordsPerLine]uint64
		install := func(i int) {
			ts := clk.ReserveEnd()
			words[0] = uint64(i)
			if _, err := m.Install(line, ts, m.NewestLine(line), 1, &words); err != nil {
				b.Fatal(err)
			}
			clk.CompleteEnd(ts)
		}
		for i := 0; i < 16; i++ {
			install(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			install(i)
		}
	})
	// The memory-hierarchy hot paths, in the regime the fast path
	// exists for: a way-predicted L1 hit on the Table 1 architecture
	// (the same shape as BenchmarkAccess/hit in internal/cache).
	access := testing.Benchmark(func(b *testing.B) {
		cfg := cache.DefaultConfig()
		h := cache.NewHierarchy(cfg, cache.NewShared(cfg))
		h.Access(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(1)
		}
	})
	versioned := testing.Benchmark(func(b *testing.B) {
		cfg := cache.DefaultConfig()
		h := cache.NewHierarchy(cfg, cache.NewShared(cfg))
		h.AccessVersioned(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.AccessVersioned(1)
		}
	})
	out := []benchHotPath{
		{Name: "sched.Tick", NsPerOp: float64(tick.T.Nanoseconds()) / float64(tick.N), AllocsPerOp: tick.AllocsPerOp()},
		{Name: "mvm.Install", NsPerOp: float64(install.T.Nanoseconds()) / float64(install.N), AllocsPerOp: install.AllocsPerOp()},
		{Name: "cache.Access", NsPerOp: float64(access.T.Nanoseconds()) / float64(access.N), AllocsPerOp: access.AllocsPerOp()},
		{Name: "cache.AccessVersioned", NsPerOp: float64(versioned.T.Nanoseconds()) / float64(versioned.N), AllocsPerOp: versioned.AllocsPerOp()},
	}
	// The engine transaction hot paths: one whole writer transaction per
	// op (begin, four first-writes, commit) on the aset-backed fast sets.
	for _, eng := range []struct {
		name string
		make func() tm.Engine
	}{
		{"core.Commit", func() tm.Engine { return core.New(core.DefaultConfig()) }},
		{"twopl.Commit", func() tm.Engine { return twopl.New(twopl.DefaultConfig()) }},
		{"sontm.Commit", func() tm.Engine { return sontm.New(sontm.DefaultConfig()) }},
	} {
		r := testing.Benchmark(engineCommitBench(eng.make()))
		out = append(out, benchHotPath{Name: eng.name, NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N), AllocsPerOp: r.AllocsPerOp()})
	}
	for _, hp := range out {
		if hp.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "sitm-bench: warning: %s allocates %d allocs/op (expected 0)\n", hp.Name, hp.AllocsPerOp)
		}
	}
	return out
}

// engineCommitBench is the full-commit transaction shape on a
// single-threaded simulation, after one warm-up transaction brings the
// engine's recycled transaction object and access sets to steady state.
func engineCommitBench(e tm.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		s := sched.New(1, 1)
		s.Run(func(th *sched.Thread) {
			commitOne := func(i int) {
				tx := e.Begin(th)
				for l := 0; l < 4; l++ {
					tx.Write(mem.Addr((1+l)*mem.LineBytes), uint64(i))
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			commitOne(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitOne(i)
			}
			b.StopTimer()
		})
	}
}
