package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/sched"
)

// endToEnd fills the end-to-end metrics from the untraced measured rounds.
// Host-time figures are medians over the rounds (the cell-time quantiles
// pool every measured cell). Simulated figures are exact: they are summed
// over the first minRounds rounds, whose seeds are fixed by --seed.
func endToEnd(ms map[string]metric, rounds []roundResult, cellsPerRound int) {
	per := func(f func(r roundResult) float64) float64 {
		vs := make([]float64, len(rounds))
		for i, r := range rounds {
			vs[i] = f(r)
		}
		return median(vs)
	}
	var cellMs []float64
	for _, r := range rounds {
		for _, c := range r.results {
			cellMs = append(cellMs, ms1(c.Wall))
		}
	}
	ms["wall_s"] = metric{per(func(r roundResult) float64 { return r.wall.Seconds() }), "s"}
	fmt.Print("round walls (s):")
	for _, r := range rounds {
		fmt.Printf(" %.3f", r.wall.Seconds())
	}
	fmt.Println()
	ms["sim_mcycles_per_s"] = metric{per(func(r roundResult) float64 {
		var sim time.Duration
		for _, s := range r.spans {
			sim += s.simulate
		}
		return float64(makespan(r.results)) / 1e6 / sim.Seconds()
	}), "Mcycles/s"}
	ms["cell_ms_p50"] = metric{quantile(cellMs, 0.5), "ms"}
	tail := tailPercentile(cellsPerRound * minRounds)
	ms["cell_ms_tail"] = metric{quantile(cellMs, tail/100), "ms"}
	fmt.Printf("cell_ms_tail is p%g of %d cells\n", tail, len(cellMs))
	ms["setup_s"] = metric{per(func(r roundResult) float64 {
		var d time.Duration
		for _, s := range r.spans {
			d += s.setup
		}
		return d.Seconds()
	}), "s"}
	ms["peak_heap_mb"] = metric{per(func(r roundResult) float64 { return float64(r.peakHeap) / (1 << 20) }), "MiB"}
	ms["alloc_mb"] = metric{per(func(r roundResult) float64 { return float64(r.alloc) / (1 << 20) }), "MiB"}

	var cells []exp.Result[exp.CellResult]
	for _, r := range rounds[:minRounds] {
		cells = append(cells, r.results...)
	}
	ms["sim_gcycles"] = metric{float64(makespan(cells)) / 1e9, "Gcycles"}
	si, _ := engineAbortPct(cells, harness.SITM)
	ms["abort_pct.si-tm"] = metric{si, "%"}
	var h report.Hist
	for i := range cells {
		h.Add(&cells[i].Value.CommitHist)
	}
	ms["commit_p99_kcycles"] = metric{float64(h.Quantile(0.99)) / 1e3, "kcycles"}
	for _, e := range []string{harness.TwoPL, harness.SONTM} {
		if pct, ok := engineAbortPct(cells, e); ok {
			fmt.Printf("abort_pct.%s %.6g %%\n", strings.ToLower(e), pct)
		}
	}
}

// counts are the exact per-layer operation counts of a set of rounds.
type counts struct {
	sched                                              sched.Stats
	commits, aborts, stalls, backoff                   uint64
	installs, coalesced, reclaimed, oldReads           uint64
	peakVersions                                       int
	accesses, l1Hits, memAccesses, xlateHit, xlateMiss uint64
}

// sumCounts adds up the counts of rounds.
func sumCounts(rounds []roundResult) counts {
	var c counts
	for _, r := range rounds {
		for _, res := range r.results {
			v := res.Value
			c.sched.Add(v.Sched)
			c.commits += v.Commits
			c.aborts += v.Aborts
			c.installs += v.MVM.Installs
			c.coalesced += v.MVM.Coalesced
			c.reclaimed += v.MVM.GCReclaimed
			for _, d := range v.MVM.AccessDepth[1:] {
				c.oldReads += d
			}
			c.oldReads += v.MVM.AccessTail
			c.peakVersions = max(c.peakVersions, v.MVM.PeakVersions)
		}
		for _, s := range r.spans {
			c.stalls += s.stalls
			c.backoff += s.backoff
			c.accesses += s.cache.Accesses
			c.l1Hits += s.cache.L1Hits
			c.memAccesses += s.cache.MemAccesses
			c.xlateHit += s.cache.XlateHits
			c.xlateMiss += s.cache.XlateMisses
		}
	}
	return c
}

// perLayer fills the per-layer metrics of a --trace 1 run. Profile shares,
// host-time spans and ns-per-operation figures come from every traced
// round; the exact counts are summed over the first minRounds traced
// rounds, whose seeds are fixed by --seed. The tracing overhead compares
// each traced round with the untraced round of the same seed; its
// quartiles over the pairs are printed beside the median.
func perLayer(ms map[string]metric, traced, untraced []roundResult, workers int) error {
	per := func(f func(r roundResult) float64) float64 {
		vs := make([]float64, len(traced))
		for i, r := range traced {
			vs[i] = f(r)
		}
		return median(vs)
	}
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i].wall.Seconds() / untraced[i].wall.Seconds()
	}
	ms["trace.overhead_pct"] = metric{100 * (median(ratios) - 1), "%"}
	fmt.Printf("trace.overhead_pct over %d pairs: median %+.2f %%, quartiles [%+.2f, %+.2f] %%\n", len(ratios),
		100*(median(ratios)-1), 100*(quantile(ratios, 0.25)-1), 100*(quantile(ratios, 0.75)-1))

	// Every sample lands in exactly one bucket, so the shares add to 100.
	cpu := map[string]int64{}
	var total int64
	for _, r := range traced {
		for l, ns := range r.profile {
			cpu[l] += ns
			total += ns
		}
	}
	all, c := sumCounts(traced), sumCounts(traced[:minRounds])
	if total == 0 {
		return fmt.Errorf("the CPU profile of %d traced rounds holds no samples", len(traced))
	}
	for _, l := range layers {
		name := l + ".self_pct"
		if l == "runtime.gc" {
			name = "runtime.gc_pct"
		}
		ms[name] = metric{100 * float64(cpu[l]) / float64(total), "%"}
	}
	nsPer := func(layer string, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(cpu[layer]) / float64(n)
	}

	ms["exp.cells"] = metric{float64(len(traced[0].results)), "count"}
	ms["exp.worker_busy_pct"] = metric{per(func(r roundResult) float64 {
		var busy time.Duration
		for _, c := range r.results {
			busy += c.Wall
		}
		return 100 * busy.Seconds() / (r.wall.Seconds() * float64(workers))
	}), "%"}
	ms["harness.render_s"] = metric{per(func(r roundResult) float64 { return r.render.Seconds() }), "s"}
	for _, pkg := range []string{"micro", "stamp", "oltp"} {
		span := func(f func(s cellSpans) time.Duration) float64 {
			return per(func(r roundResult) float64 {
				var d time.Duration
				for _, s := range r.spans {
					if s.pkg == pkg {
						d += f(s)
					}
				}
				return d.Seconds()
			})
		}
		ms[pkg+".setup_s"] = metric{span(func(s cellSpans) time.Duration { return s.setup }), "s"}
		ms[pkg+".validate_s"] = metric{span(func(s cellSpans) time.Duration { return s.validate }), "s"}
	}

	ms["sched.switches"] = metric{float64(c.sched.CoroutineSwitches), "count"}
	ms["sched.inline_ticks"] = metric{float64(c.sched.InlineTicks), "count"}
	ms["sched.batched_events"] = metric{float64(c.sched.BatchedEvents), "count"}
	ms["sched.local_ticks"] = metric{float64(c.sched.LocalTicks), "count"}
	ms["sched.ns_per_switch"] = metric{nsPer("sched", all.sched.CoroutineSwitches), "ns"}

	ms["cache.accesses"] = metric{float64(c.accesses), "count"}
	ms["cache.l1_hit_pct"] = metric{pct(c.l1Hits, c.accesses), "%"}
	ms["cache.mem_pct"] = metric{pct(c.memAccesses, c.accesses), "%"}
	ms["cache.xlate_miss_pct"] = metric{pct(c.xlateMiss, c.xlateHit+c.xlateMiss), "%"}
	ms["cache.ns_per_access"] = metric{nsPer("cache", all.accesses), "ns"}

	ms["mvm.installs"] = metric{float64(c.installs), "count"}
	ms["mvm.coalesced"] = metric{float64(c.coalesced), "count"}
	ms["mvm.gc_reclaimed"] = metric{float64(c.reclaimed), "count"}
	ms["mvm.old_version_reads"] = metric{float64(c.oldReads), "count"}
	ms["mvm.peak_versions"] = metric{float64(c.peakVersions), "count"}
	ms["mvm.ns_per_install"] = metric{nsPer("mvm", all.installs), "ns"}

	ms["tm.attempts"] = metric{float64(c.commits + c.aborts), "count"}
	ms["tm.commits"] = metric{float64(c.commits), "count"}
	ms["tm.commit_pct"] = metric{pct(c.commits, c.commits+c.aborts), "%"}
	ms["tm.backoff_gcycles"] = metric{float64(c.backoff) / 1e9, "Gcycles"}
	ms["tm.stalls"] = metric{float64(c.stalls), "count"}
	var cells []exp.Result[exp.CellResult]
	for _, r := range traced[:minRounds] {
		cells = append(cells, r.results...)
	}
	for _, e := range []struct{ layer, engine string }{{"twopl", harness.TwoPL}, {"sontm", harness.SONTM}} {
		p, _ := engineAbortPct(cells, e.engine)
		ms[e.layer+".abort_pct"] = metric{p, "%"}
	}
	return nil
}

func makespan(rs []exp.Result[exp.CellResult]) uint64 {
	var sum uint64
	for _, r := range rs {
		sum += r.Value.SimCycles
	}
	return sum
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func ms1(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailPercentile is the highest of the standard percentiles that leaves at
// least ten of n samples beyond it.
func tailPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-perMille) >= 10*1000 {
			return float64(perMille) / 10
		}
	}
	return 50
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the q-quantile of vs by linear interpolation between the
// closest ranks.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
