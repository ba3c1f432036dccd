package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/harness"
)

// workload is one benchmark input: the figures of the evaluation it
// regenerates, rendered for a single seed per round.
type workload struct {
	name string
	// figures are harness section names, planned and rendered in order.
	figures []string
	// threads is the thread count of the sections that take one.
	threads int
	// scale multiplies the workloads' input sizes (harness.Options.Scale).
	scale int
}

// Why each workload is in the benchmark (mirrored in BENCHMARK.json).
var workloads = []workload{
	// The paper's headline (Figure 7: 10 workloads x {2PL, SONTM, SI-TM}
	// x {8, 16, 32} threads, 90 cells). Near-zero setup; stresses the
	// conductor and coroutine switches, L1 hits and txlib traversals.
	{name: "paper-fig7", figures: []string{"figure7"}},
	// The serving tier (figure-oltp: kv and ledger at three skews x three
	// engines x {8, 32} threads, 36 cells). Large paged footprints, cache
	// misses to memory and long read sets; the scheduler is light.
	{name: "oltp-zipf", figures: []string{"figure-oltp"}},
	// Table 2 plus the section 3 MVM report: SI-TM only at 32 threads,
	// unbounded versions and the overhead/dedup measurement (20 cells).
	// MVM and horizon batching at full weight; 2PL and SONTM never run.
	{name: "sitm-mvm", figures: []string{"table2", "mvm"}, threads: 32, scale: 2},
}

// minRounds is the fewest measured rounds a run makes, whatever its
// --seconds; it keeps the medians and the pooled cell-time tail defined.
const minRounds = 5

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// options is the harness configuration of the workload's figures for the
// given seeds, worker pool and result cache.
func (w workload) options(seeds []uint64, workers int, cache *exp.Cache) harness.Options {
	return harness.Options{Seeds: seeds, Workers: workers, Cache: cache, Scale: w.scale}
}
