package oltp_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/oltp"
	"repro/internal/sched"
	"repro/internal/tm"
	"repro/internal/txlib"

	_ "repro/internal/sontm"
	_ "repro/internal/twopl"
)

// runCell drives one workload cell exactly as the harness cell layer
// does: fresh engine from the registry, fresh address space, the
// deterministic machine.
func runCell(t *testing.T, engine string, w oltp.Workload, threads int, seed uint64) (tm.Engine, *txlib.Mem) {
	t.Helper()
	e, err := tm.NewEngine(engine, tm.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := txlib.NewMem(e)
	w.Setup(m, threads)
	bo := tm.DefaultBackoff()
	s := sched.New(threads, seed)
	s.Run(func(th *sched.Thread) { w.Run(m, th, bo) })
	return e, m
}

func TestZipfSkewAndDeterminism(t *testing.T) {
	const n = 1 << 20
	z := oltp.NewZipf(n, 0.99)
	r1, r2 := sched.NewRand(7), sched.NewRand(7)
	hot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		a, b := z.Next(r1), z.Next(r2)
		if a != b {
			t.Fatalf("draw %d: %d vs %d with identical seeds", i, a, b)
		}
		if a >= n {
			t.Fatalf("draw %d out of range: %d", i, a)
		}
		if a < 4096 {
			hot++
		}
	}
	// At theta 0.99 over 2²⁰ ranks the mass is near-logarithmic in rank:
	// the first 4096 ranks (0.4% of the space) carry ~60% of the draws.
	if frac := float64(hot) / draws; frac < 0.50 {
		t.Fatalf("theta=0.99 put only %.2f of draws in the hot head", frac)
	}
	// Near-uniform at theta 0: the hot head gets roughly its share.
	u := oltp.NewZipf(n, 0)
	hot = 0
	for i := 0; i < draws; i++ {
		if u.Next(r1) < n/2 {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac < 0.40 || frac > 0.60 {
		t.Fatalf("theta=0 is not near-uniform: %.2f of draws below the median", frac)
	}
}

func TestValidateTheta(t *testing.T) {
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if oltp.ValidateTheta(bad) == nil {
			t.Fatalf("theta %v must be rejected", bad)
		}
	}
	for _, ok := range []float64{0, 0.5, 0.99, 0.999} {
		if err := oltp.ValidateTheta(ok); err != nil {
			t.Fatalf("theta %v rejected: %v", ok, err)
		}
	}
}

func TestByName(t *testing.T) {
	f, isOLTP, err := oltp.ByName("kv@0.5")
	if !isOLTP || err != nil {
		t.Fatalf("kv@0.5: isOLTP=%v err=%v", isOLTP, err)
	}
	if name := f().Name(); name != "kv@0.50" {
		t.Fatalf("canonical name = %q", name)
	}
	if f, isOLTP, err = oltp.ByName("LEDGER"); !isOLTP || err != nil {
		t.Fatalf("LEDGER: isOLTP=%v err=%v", isOLTP, err)
	}
	if name := f().Name(); name != "ledger@0.99" {
		t.Fatalf("default-theta name = %q", name)
	}
	if _, isOLTP, err = oltp.ByName("kv@1.5"); !isOLTP || err == nil {
		t.Fatal("out-of-range theta must be an oltp-tier error")
	}
	if _, isOLTP, err = oltp.ByName("kv@zebra"); !isOLTP || err == nil {
		t.Fatal("malformed theta must be an oltp-tier error")
	}
	if _, isOLTP, _ = oltp.ByName("List"); isOLTP {
		t.Fatal("List is not an oltp tier name")
	}
	// A skew the two-decimal name cannot carry would silently run (or
	// fail to find) a different column: it must be rejected up front.
	for _, name := range []string{"kv@0.996", "ledger@0.123", "KV@0.9999"} {
		_, isOLTP, err := oltp.ByName(name)
		if !isOLTP || err == nil {
			t.Fatalf("%s: isOLTP=%v err=%v, want a round-trip error", name, isOLTP, err)
		}
		if !strings.Contains(err.Error(), "@0.dd") {
			t.Fatalf("%s: error %q does not name the accepted form", name, err)
		}
	}
	for _, name := range []string{"kv@0.90", "KV@0.99", "ledger@0.5", "kv@0.500"} {
		if _, _, err := oltp.ByName(name); err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
	}
}

// FuzzByName checks the tier-name parser: it never panics, every name it
// accepts yields a workload whose Name parses back to the requested
// skew, and that skew prepares a Zipf generator without panicking.
func FuzzByName(f *testing.F) {
	for _, seed := range []string{"kv", "KV@0.99", "ledger@0.5", "kv@1", "kv@-0", "kv@NaN", "kv@0.996", "kv@"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		w, isOLTP, err := oltp.ByName(name)
		if !isOLTP && err != nil {
			t.Fatalf("%q: error %v outside the tier", name, err)
		}
		if !isOLTP || err != nil {
			return
		}
		want := oltp.DefaultTheta
		if _, s, ok := strings.Cut(name, "@"); ok {
			if want, err = strconv.ParseFloat(s, 64); err != nil {
				t.Fatalf("%q accepted with an unparseable theta", name)
			}
		}
		canon := w().Name()
		_, s, _ := strings.Cut(canon, "@")
		got, err := strconv.ParseFloat(s, 64)
		if err != nil || got != want {
			t.Fatalf("%q accepted, but its name %q reads back theta %v (err %v), want %v", name, canon, got, err, want)
		}
		// A small n keeps each new skew's one-time preparation cheap.
		z := oltp.NewZipf(1<<10, got)
		r := sched.NewRand(1)
		for i := 0; i < 16; i++ {
			if k := z.Next(r); k >= 1<<10 {
				t.Fatalf("%q: draw %d out of range", name, k)
			}
		}
	})
}

// TestLedgerServingScaleFootprint is the acceptance cell: a 10⁶-account
// ledger at 32 threads, theta 0.99, completes with heap proportional to
// touched lines — the MVM's version table allocates a sliver of the
// address span.
func TestLedgerServingScaleFootprint(t *testing.T) {
	w := oltp.NewLedger(0.99)
	if w.Accounts < 1_000_000 {
		t.Fatalf("ledger span %d below 10^6 accounts", w.Accounts)
	}
	e, m := runCell(t, "SI-TM", w, 32, 1)
	if msg := w.Validate(m); msg != "" {
		t.Fatal(msg)
	}
	si := e.(*core.Engine)
	if c := si.Stats().Commits; c == 0 {
		t.Fatal("no commits")
	}
	lines := si.MVM().LinesAllocated()
	if lines == 0 {
		t.Fatal("no lines versioned")
	}
	if lines > w.Accounts/10 {
		t.Fatalf("MVM allocated %d lines for %d touched-line workload (span %d): footprint tracks the span, not the touches",
			lines, lines, w.Accounts)
	}
	// The paged store's allocation tracks touched pages, not the span:
	// the span needs Accounts/PageEntries pages; the run must use far
	// fewer entries' worth than the span.
	spanPages := w.Accounts / mem.PageEntries
	if got := si.MVM().StorePages(); got >= spanPages {
		t.Fatalf("version table allocated %d pages, span would be %d: paged store not sparse", got, spanPages)
	}
}

// TestKVSparseSpanFootprint widens the span to 2²⁴ lines with a short
// session: under the dense backing the version table alone would grow to
// the maximum touched index; paged, it allocates only around the touched
// ranks.
func TestKVSparseSpanFootprint(t *testing.T) {
	w := oltp.NewKV(0.99)
	w.Keys = 1 << 24
	w.TxnsPerThread = 8
	w.ScanEvery = 0 // point transactions only; keep the touch set tiny
	e, _ := runCell(t, "SI-TM", w, 8, 1)
	si := e.(*core.Engine)
	pages := si.MVM().StorePages()
	spanPages := w.Keys / mem.PageEntries
	if pages == 0 {
		t.Fatal("no pages allocated")
	}
	if pages*64 > spanPages {
		t.Fatalf("sparse 2^24-line span allocated %d pages (span equivalent %d): not O(touched)", pages, spanPages)
	}
}

// TestScansDoNotAbortWriters pins the paper's §1 claim at serving scale:
// under SI-TM the long analytical scans commit read-only and no
// transaction ever aborts on a read-write conflict, while 2PL running
// the identical cell pays read-write aborts for the same scans.
func TestScansDoNotAbortWriters(t *testing.T) {
	mk := func() *oltp.KV {
		w := oltp.NewKV(0.99)
		w.Keys = 1 << 16 // smaller span keeps the differential cell quick
		return w
	}
	si, _ := runCell(t, "SI-TM", mk(), 16, 1)
	st := si.Stats()
	if st.ReadOnly == 0 {
		t.Fatal("SI-TM: no read-only commits despite analytical scans")
	}
	if rw := st.Aborts[tm.AbortReadWrite]; rw != 0 {
		t.Fatalf("SI-TM: %d read-write aborts; snapshot reads must be invisible", rw)
	}
	pl, _ := runCell(t, "2PL", mk(), 16, 1)
	if rw := pl.Stats().Aborts[tm.AbortReadWrite]; rw == 0 {
		t.Fatal("2PL: same cell produced no read-write aborts; the differential claim has no teeth")
	}
}

// TestKVInvariantAcrossEngines runs a small KV cell on every registered
// engine and checks the commit-count invariant holds.
func TestKVInvariantAcrossEngines(t *testing.T) {
	for _, engine := range tm.Engines() {
		w := oltp.NewKV(0.9)
		w.Keys = 1 << 14
		w.TxnsPerThread = 10
		_, m := runCell(t, engine, w, 4, 2)
		if msg := w.Validate(m); msg != "" {
			t.Fatalf("%s: %s", engine, msg)
		}
	}
}

// TestDeterministicAcrossRuns pins byte-level stats determinism of the
// tier: identical cells produce identical counters and histograms.
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() tm.Stats {
		w := oltp.NewLedger(0.9)
		w.Accounts = 1 << 16
		e, _ := runCell(t, "SI-TM", w, 8, 3)
		return *e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
}
