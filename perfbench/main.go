// Command perfbench is the repository benchmark. It regenerates one
// evaluation workload for one seed through the real cell path
// (harness.PlanFigure, exp.CellRunner, exp.ExecuteCell, then the harness
// render from the round's result cache), checks the rendered bytes, and
// prints its metrics as one JSON object on the last line of standard
// output: the end-to-end metrics with --trace 0, the per-layer metrics
// (CPU profile bucketed by package plus the packages' exact counters)
// with --trace 1.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-fig7 --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-fig7, oltp-zipf or sitm-mvm")
		seed    = flag.Uint64("seed", 1, "input seed: round i of the run simulates scheduler seed 1000*seed+1+i")
		seconds = flag.Int("seconds", 30, "measure for at least this many seconds (after one warm-up round)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced rounds")
		workers = flag.Int("workers", min(2, runtime.NumCPU()), "experiment worker pool size")
		record  = flag.Bool("record", false, "print the digests of the first rounds' figure bytes, in the format of pins.txt, instead of measuring")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workers, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// cellsDir holds the run's result caches, under the working directory
// (the checkout root, where run.sh also puts its build outputs). Each run
// removes its own caches when it ends.
const cellsDir = ".bench_build"

func run(name string, seed uint64, seconds, trace, workers int, record bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) || workers < 1 {
		return errors.New("need --seconds >= 1, --trace 0 or 1 and --workers >= 1")
	}
	// Rendering reads the cells back from the round's result cache, which
	// needs the source fingerprints of the tree the binary was built from.
	if !exp.CurrentProvenance().CanCache() {
		return errors.New("simulation sources not found next to the binary: build and run it inside the repository checkout")
	}
	if err := os.MkdirAll(cellsDir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(cellsDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	b := bench{w: w, workers: workers}
	// Every round simulates a seed no earlier round of its cache has, so
	// each is cold. The warm-up repeats the first measured seed and the
	// traced rounds repeat the untraced ones, so each gets its own cache.
	var warmCache, cache, tracedCache *exp.Cache
	for _, c := range []**exp.Cache{&warmCache, &cache, &tracedCache} {
		dir, err := os.MkdirTemp(runDir, "cells-")
		if err != nil {
			return err
		}
		if *c, err = exp.OpenCache(dir); err != nil {
			return err
		}
	}

	// The paper-shape checks average the first minRounds seeds, which
	// every run simulates into cache whatever its length or trace mode, so
	// --seed alone decides them.
	shapeSeeds := make([]uint64, minRounds)
	for i := range shapeSeeds {
		shapeSeeds[i] = roundSeed(seed, i)
	}
	if record {
		var rounds []roundResult
		for _, s := range shapeSeeds {
			r, err := b.round(s, false, cache)
			if err != nil {
				return err
			}
			fmt.Printf("%s %d %s\n", w.name, r.seed, r.digest)
			rounds = append(rounds, r)
		}
		g := checkRun(w, workers, cache, shapeSeeds, rounds)
		fmt.Fprintf(os.Stderr, "%s --seed %d: %s\n", w.name, seed, g.detail)
		if !g.ok {
			return errors.New("the rounds fail the correctness gate: their digests must not be pinned")
		}
		return nil
	}
	// The warm-up round is not timed. It renders the first measured
	// round's seed, whose bytes must come out identical.
	warm, err := b.round(roundSeed(seed, 0), false, warmCache)
	if err != nil {
		return err
	}
	var measured, traced []roundResult
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start) >= time.Duration(seconds)*time.Second &&
			len(measured) >= minRounds && len(traced) == trace*len(measured) {
			break
		}
		// A --trace 1 run measures pairs: a traced and an untraced round
		// of the same seed. Even pairs run the traced round first, odd
		// pairs the untraced one, so the tracing overhead carries no
		// order effect.
		idx, tracedRound, c := i, false, cache
		if trace == 1 {
			idx = i / 2
			tracedRound = i%2 == idx%2
		}
		if tracedRound {
			c = tracedCache
		}
		r, err := b.round(roundSeed(seed, idx), tracedRound, c)
		if err != nil {
			return err
		}
		if tracedRound {
			traced = append(traced, r)
		} else {
			measured = append(measured, r)
		}
	}

	all := append(append([]roundResult{warm}, measured...), traced...)
	gate := checkRun(w, workers, cache, shapeSeeds, all)
	if warm.digest != measured[0].digest {
		gate.ok = false
		gate.detail += fmt.Sprintf("\nwarm-up and first measured round rendered different bytes for seed %d", warm.seed)
	}
	out := result{Metrics: map[string]metric{}}
	for _, r := range all {
		out.Attempted += len(r.results)
		out.Failed += r.failed
	}
	if !gate.ok {
		out.Failed = out.Attempted
	}
	out.Correct = out.Failed == 0
	fmt.Printf("workload %s --seed %d, workers %d: 1 warm-up + %d untraced + %d traced rounds of %d cells\n",
		w.name, seed, workers, len(measured), len(traced), len(warm.results))
	fmt.Printf("correctness: %s\n", gate.detail)
	fmt.Printf("failed_cell_pct %.4g %% (%d of %d cells)\n", 100*float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	if trace == 0 {
		endToEnd(out.Metrics, measured, len(warm.results))
	} else if err := perLayer(out.Metrics, traced, measured, workers); err != nil {
		return err
	}
	printHuman(out.Metrics)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// roundSeed is the scheduler seed of measured round i of a run with
// --seed n. Rounds cycle through distinct seeds, so a run's medians and
// sums average over several inputs rather than resting on one; the seeds
// of different --seed values never overlap (below 1000 rounds).
func roundSeed(n uint64, i int) uint64 { return 1000*n + 1 + uint64(i) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printHuman(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// bench runs rounds of one workload.
type bench struct {
	w       workload
	workers int
}

// roundResult is everything one round measured.
type roundResult struct {
	seed         uint64
	wall, render time.Duration
	results      []exp.Result[exp.CellResult]
	spans        []cellSpans
	failed       int
	peakHeap     uint64
	alloc        uint64
	digest       string
	// profile holds the round's CPU nanoseconds per layer (traced rounds).
	profile map[string]int64
}

// round regenerates the workload's figures once for one seed: every cell
// is simulated into cache, which must not hold the seed yet, and the
// figures are rendered from it. A traced round also records a CPU profile.
func (b bench) round(seed uint64, traced bool, cache *exp.Cache) (roundResult, error) {
	r := roundResult{seed: seed}
	col := &collector{}
	o := b.w.options([]uint64{seed}, b.workers, cache)
	renderMisses := 0
	ro := o
	ro.Progress = func(p exp.Progress) {
		if !p.Cached {
			renderMisses++
		}
	}

	// Start every round from the same heap: collected, with free pages
	// returned to the OS, as in a fresh process.
	debug.FreeOSMemory()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, err
		}
	}
	heap := startHeapSampler()
	alloc0 := readMetric("/gc/heap/allocs:bytes")
	rendered := sha256.New()
	start := time.Now()
	for _, fig := range b.w.figures {
		fp, err := harness.PlanFigure(fig, b.w.threads, o)
		if err != nil {
			return r, err
		}
		cr := exp.CellRunner{
			Runner:  exp.Runner{Workers: b.workers},
			Config:  fp.Config,
			Resolve: col.resolve,
			Cache:   cache,
			Prov:    exp.CurrentProvenance(),
		}
		rs, err := cr.Run(fp.Plan)
		if err != nil {
			return r, err
		}
		r.results = append(r.results, rs...)
		t := time.Now()
		text, err := harness.RenderFigureText(fig, b.w.threads, ro)
		if err != nil {
			return r, err
		}
		r.render += time.Since(t)
		fmt.Fprintf(rendered, "%s %d\n", fig, len(text))
		rendered.Write(text)
	}
	r.wall = time.Since(start)
	r.alloc = readMetric("/gc/heap/allocs:bytes") - alloc0
	r.peakHeap = heap.stop()
	if traced {
		pprof.StopCPUProfile()
		var err error
		if r.profile, err = bucketProfile(prof.Bytes()); err != nil {
			return r, err
		}
	}
	if renderMisses > 0 {
		return r, fmt.Errorf("rendering simulated %d cells instead of reading them from the cache", renderMisses)
	}
	r.spans = col.spans
	for _, res := range r.results {
		if res.Value.ValidateMsg != "" {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", res.Cell, res.Value.ValidateMsg)
		}
	}
	r.digest = fmt.Sprintf("%x", rendered.Sum(nil))
	return r, nil
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak bytes of live-or-unswept heap objects by
// sampling runtime/metrics every millisecond.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// engineAbortPct is the share of transaction attempts that aborted, over
// the cells of one engine; ok is false when the engine ran no cell.
func engineAbortPct(rs []exp.Result[exp.CellResult], engine string) (pct float64, ok bool) {
	var commits, aborts uint64
	for _, r := range rs {
		if strings.EqualFold(r.Cell.Engine, engine) {
			ok = true
			commits += r.Value.Commits
			aborts += r.Value.Aborts
		}
	}
	if commits+aborts == 0 {
		return 0, ok
	}
	return 100 * float64(aborts) / float64(commits+aborts), ok
}
