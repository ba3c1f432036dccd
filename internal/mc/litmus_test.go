package mc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	_ "repro/internal/core"
	_ "repro/internal/sontm"
	"repro/internal/tm"
	_ "repro/internal/twopl"
)

// exhaustivePrograms are the 2-thread litmus tests whose whole schedule
// space is enumerable in well under 10^5 schedules per engine.
func exhaustivePrograms(t *testing.T) []Program {
	t.Helper()
	var out []Program
	for _, name := range []string{"write-skew", "lost-update", "read-skew", "bank"} {
		p, err := ProgramByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestEngineMatrix is the tentpole acceptance check: exhaustively model-
// check every exhaustive litmus program on every registered engine and
// require a clean verdict for the engine's behaviourally derived family —
// SI engines admit exactly the program's expected anomalies and are
// opaque; serializable engines admit no committed-transaction anomaly
// (zombie reads of aborted eager-2PL attempts are tolerated and surfaced
// in the fingerprint, never hidden).
func TestEngineMatrix(t *testing.T) {
	progs := exhaustivePrograms(t)
	for _, engine := range tm.Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			fam, err := EngineFamily(engine, tm.EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, prog := range progs {
				r, err := RunLitmus(prog, engine, tm.EngineOptions{}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Explored.Exhausted {
					t.Fatalf("%s: exploration not exhausted after %d schedules",
						prog.Name, r.Explored.Schedules)
				}
				if v := r.Violations(fam); len(v) != 0 {
					t.Errorf("%s (%s): violations:\n  %s",
						prog.Name, fam, strings.Join(v, "\n  "))
				}
				got := r.Admitted
				switch fam {
				case FamilySI:
					if got.ZombieRead {
						t.Errorf("%s: SI engine admitted a zombie read", prog.Name)
					}
					got.ZombieRead = false
					if got != prog.SIAdmits {
						t.Errorf("%s: admitted %s, SI expectation %s",
							prog.Name, got, prog.SIAdmits)
					}
				case FamilySerializable:
					got.ZombieRead = false
					if got.Any() {
						t.Errorf("%s: serializable engine admitted %s",
							prog.Name, r.Admitted)
					}
				}
			}
		})
	}
}

// TestEngineFamilyKnown pins the behavioural classification of the four
// paper engines: only SI-TM runs under (plain) snapshot isolation; the
// 2PL and SONTM baselines and the serializability-certifying SSI-TM never
// admit write skew.
func TestEngineFamilyKnown(t *testing.T) {
	want := map[string]Family{
		"2PL":    FamilySerializable,
		"SI-TM":  FamilySI,
		"SONTM":  FamilySerializable,
		"SSI-TM": FamilySerializable,
	}
	for engine, wantFam := range want {
		fam, err := EngineFamily(engine, tm.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fam != wantFam {
			t.Errorf("EngineFamily(%s) = %s, want %s", engine, fam, wantFam)
		}
	}
}

// TestVariantHistorySets pins that option variants which must not change
// simulated semantics admit exactly the same history set as the default
// engine, schedule space and all: engines whose cache arrays and presence
// pages are recycled from a scratch another exploration left dirty (the
// fast path's O(touched) reset), and the two cost-only ablations that
// drop the translation cache and version coalescing. A divergence would
// mean a cost mechanism leaked into behaviour.
func TestVariantHistorySets(t *testing.T) {
	progs := []string{"write-skew"}
	for _, engine := range tm.Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			dirty := cache.NewScratch()
			warm, err := ProgramByName("lost-update")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunLitmus(warm, engine, tm.EngineOptions{CacheScratch: dirty}, Options{}); err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				name string
				opts tm.EngineOptions
			}{
				{"recycled-cache", tm.EngineOptions{CacheScratch: dirty}},
				{"no-xlate", tm.EngineOptions{NoXlate: true}},
				{"no-coalescing", tm.EngineOptions{NoCoalescing: true}},
			}
			names := progs
			if engine == "2PL" {
				// Also cover the zombie-read-admitting cell.
				names = append([]string{"read-skew"}, progs...)
			}
			for _, name := range names {
				prog, err := ProgramByName(name)
				if err != nil {
					t.Fatal(err)
				}
				base, err := RunLitmus(prog, engine, tm.EngineOptions{}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					r, err := RunLitmus(prog, engine, v.opts, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if r.Explored != base.Explored {
						t.Errorf("%s/%s: explored %+v, default %+v",
							name, v.name, r.Explored, base.Explored)
					}
					if !reflect.DeepEqual(r.HistoryKeys(), base.HistoryKeys()) {
						t.Errorf("%s/%s: history set diverged from default", name, v.name)
					}
				}
			}
		})
	}
}

func TestBoundedExploration(t *testing.T) {
	prog, err := ProgramByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunLitmus(prog, "SI-TM", tm.EngineOptions{}, Options{MaxSchedules: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r.Explored.Schedules != 50 || r.Explored.Exhausted {
		t.Fatalf("Explored = %+v, want exactly 50 schedules, not exhausted", r.Explored)
	}
}

func TestRunLitmusUnknownEngine(t *testing.T) {
	prog, err := ProgramByName("write-skew")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLitmus(prog, "nope", tm.EngineOptions{}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Fatalf("err = %v, want unknown-engine listing", err)
	}
}

func TestProgramByNameUnknown(t *testing.T) {
	_, err := ProgramByName("nope")
	if err == nil || !strings.Contains(err.Error(), "write-skew") {
		t.Fatalf("err = %v, want listing of valid programs", err)
	}
}

// TestCheckWriteValuesPanics pins the litmus value discipline: a
// committed write colliding with the initial value would make value-
// resolved reads-from ambiguous, so it must be rejected loudly.
func TestCheckWriteValuesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on duplicate write value")
		}
		if !strings.Contains(r.(string), "duplicate value") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	prog, err := ProgramByName("write-skew")
	if err != nil {
		t.Fatal(err)
	}
	checkWriteValues(prog, parseHist(t, "b0 w0v0=1 c0")) // init x is also 1
}
