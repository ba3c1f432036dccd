package tmtest_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/tm"
	"repro/internal/tmtest"

	// Engines under test self-register with the tm registry.
	_ "repro/internal/core"
	_ "repro/internal/sontm"
	_ "repro/internal/twopl"
)

// TestRegistrySweep runs the conformance suite against every engine the
// tm registry knows, by registered name rather than a hard-coded list:
// an engine added in a future PR is covered the moment it self-registers.
// The isolation suite is chosen by probing the engine's behaviour on the
// write-skew litmus, so the sweep needs no per-engine knowledge at all.
func TestRegistrySweep(t *testing.T) {
	names := tm.Engines()
	if len(names) < 4 {
		t.Fatalf("registry lists %v; expected at least 2PL, SONTM, SI-TM and SSI-TM", names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			f := func() tm.Engine {
				e, err := tm.NewEngine(name, tm.EngineOptions{})
				if err != nil {
					t.Fatalf("constructing %s: %v", name, err)
				}
				return e
			}
			tmtest.RunConformance(t, f)
			iso := tmtest.DetectIsolation(f)
			t.Logf("%s probes as %s", name, iso)
			switch iso {
			case tmtest.SnapshotIsolation:
				tmtest.RunSnapshotIsolationSuite(t, f)
			case tmtest.Serializable:
				tmtest.RunSerializableSuite(t, f)
			}
		})
	}
}

// TestRegistrySweepOptions re-runs conformance under the engine options
// the evaluation sweeps (word granularity, unbounded versions), again for
// every registered engine; engines ignore options that do not apply. The
// reference-store variant builds every engine on one cache scratch and
// releases each engine into it before the next is built, as the
// experiment workers do between cells, so all but the first engine run on
// recycled stores — cache arrays and presence-filter pages reset in
// O(touched) rather than freshly allocated — and must still conform.
func TestRegistrySweepOptions(t *testing.T) {
	opts := map[string]tm.EngineOptions{
		"word-granularity":   {WordGranularity: true},
		"unbounded-versions": {UnboundedVersions: true},
		"reference-store":    {CacheScratch: cache.NewScratch()},
	}
	for _, name := range tm.Engines() {
		for label, o := range opts {
			o := o
			t.Run(name+"/"+label, func(t *testing.T) {
				var prev tm.Engine
				tmtest.RunConformance(t, func() tm.Engine {
					if r, ok := prev.(interface{ ReleaseCaches() }); ok && o.CacheScratch != nil {
						r.ReleaseCaches()
					}
					e, err := tm.NewEngine(name, o)
					if err != nil {
						t.Fatalf("constructing %s: %v", name, err)
					}
					prev = e
					return e
				})
			})
		}
	}
}
