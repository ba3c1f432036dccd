package main

import (
	_ "embed"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/report"
)

// The correctness gate. For the recorded seeds a round's rendered bytes
// must hash to the pinned SHA-256 digest, which holds the simulator to the
// exact figures it produced when the benchmark was defined; other seeds
// are "unpinned". Whatever the seeds, the run's figures, averaged over its
// measured seeds as the paper averages its runs, must pass the report
// package's paper-shape checks, and every round must pass the serving-tier
// invariants. Every cell's Workload.Validate must pass too, and the
// warm-up round must render the same bytes as the round it repeats; the
// caller checks those.

// pinsFile holds one "<workload> <scheduler seed> <sha256>" line per pinned
// round, as `perfbench --record --workload <w> --seed <n>` prints them. A
// change that alters figures on purpose records them again and says why.
//
//go:embed pins.txt
var pinsFile string

// pinned maps workload -> scheduler seed -> digest of the figure bytes.
var pinned = parsePins(pinsFile)

func parsePins(text string) map[string]map[uint64]string {
	pins := map[string]map[uint64]string{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 || len(f[2]) != 64 {
			panic(fmt.Sprintf("pins.txt: malformed line %q", line))
		}
		seed, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			panic(fmt.Sprintf("pins.txt: malformed seed in %q", line))
		}
		if pins[f[0]] == nil {
			pins[f[0]] = map[uint64]string{}
		}
		pins[f[0]][seed] = f[2]
	}
	return pins
}

type gateResult struct {
	ok     bool
	detail string
}

// checkRun applies the gate to a run's rounds. cache holds the cells of
// the measured seeds, from which the shape checks re-read their data.
func checkRun(w workload, workers int, cache *exp.Cache, seeds []uint64, rounds []roundResult) gateResult {
	g := gateResult{ok: true}
	pinnedOK, unpinned := 0, 0
	var fs report.Findings
	for _, r := range rounds {
		if want, ok := pinned[w.name][r.seed]; !ok {
			unpinned++
		} else if r.digest != want {
			g.ok = false
			g.detail += fmt.Sprintf("seed %d: pinned digest mismatch: got %s, want %s\n", r.seed, r.digest, want)
		} else {
			pinnedOK++
		}
		if slices.Contains(w.figures, "figure-oltp") {
			fs = append(fs, oltpChecks(r.results)...)
		}
	}
	o := w.options(seeds, workers, cache)
	for _, fig := range w.figures {
		switch fig {
		case "figure7":
			fs = append(fs, report.CheckFigure7(harness.Figure7(io.Discard, o))...)
		case "table2":
			fs = append(fs, report.CheckTable2(harness.Table2(io.Discard, w.threads, o))...)
		case "mvm":
			for _, row := range harness.MVMReport(io.Discard, w.threads, o) {
				fs = append(fs, report.Finding{
					Check:  fmt.Sprintf("mvm %s installs within the 4-version bound", row.Workload),
					OK:     row.Installs > 0 && row.PeakVersions <= 4,
					Detail: fmt.Sprintf("installs %d, peak versions %d", row.Installs, row.PeakVersions),
				})
			}
		}
	}
	if !fs.AllOK() {
		g.ok = false
		g.detail += "shape checks failed:\n" + fs.String()
	}
	g.detail += fmt.Sprintf("%d rounds match their pinned digest, %d unpinned; %d shape checks over seeds %v",
		pinnedOK, unpinned, len(fs), seeds)
	return g
}

// oltpChecks: every engine commits the same transactions of a closed-loop
// serving workload, and SI-TM never aborts a transaction on a read-write
// conflict (its long read-only scans commit from their snapshot).
func oltpChecks(rs []exp.Result[exp.CellResult]) report.Findings {
	var fs report.Findings
	type key struct {
		workload string
		threads  int
	}
	commits := map[key]uint64{}
	for _, r := range rs {
		c, v := r.Cell, r.Value
		k := key{c.Workload, c.Threads}
		if want, ok := commits[k]; ok {
			fs = append(fs, report.Finding{
				Check:  fmt.Sprintf("oltp %s t%d %s commits like the other engines", c.Workload, c.Threads, c.Engine),
				OK:     v.Commits == want,
				Detail: fmt.Sprintf("committed %d, want %d", v.Commits, want),
			})
		} else {
			commits[k] = v.Commits
		}
		if strings.EqualFold(c.Engine, harness.SITM) {
			fs = append(fs, report.Finding{
				Check:  fmt.Sprintf("oltp %s t%d si-tm no read-write aborts", c.Workload, c.Threads),
				OK:     v.RWAborts == 0,
				Detail: fmt.Sprintf("%d read-write aborts", v.RWAborts),
			})
		}
	}
	return fs
}
