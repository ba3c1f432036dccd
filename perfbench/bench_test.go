package main

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/harness"
)

// TestDecoratedBytesIdentical runs one round of every workload through the
// benchmark's decorated cell path and checks that its rendered bytes equal
// plain harness.RenderFigureText output (no decorator, no result cache),
// and that the round passes the gate, pinned digest included.
func TestDecoratedBytesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload twice")
	}
	seed := roundSeed(1, 0)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cache, err := exp.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			r, err := bench{w: w, workers: 2}.round(seed, false, cache)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := pinned[w.name][seed]; !ok {
				t.Errorf("seed %d is not pinned", seed)
			}
			if g := checkRun(w, 2, cache, []uint64{seed}, []roundResult{r}); !g.ok {
				t.Errorf("gate: %s", g.detail)
			}
			plain := sha256.New()
			for _, fig := range w.figures {
				text, err := harness.RenderFigureText(fig, w.threads, w.options([]uint64{seed}, 2, nil))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(plain, "%s %d\n", fig, len(text))
				plain.Write(text)
			}
			if got := fmt.Sprintf("%x", plain.Sum(nil)); got != r.digest {
				t.Errorf("plain render digest %s, decorated %s", got, r.digest)
			}
			if len(r.spans) != len(r.results) {
				t.Errorf("decorator saw %d cells, the runner ran %d", len(r.spans), len(r.results))
			}
		})
	}
}

// TestGateRejectsPerturbedDigest flips one hex digit of a pinned digest
// and checks that the gate fails the round, and passes the digest itself.
// The rounds carry no cells, so only the digest comparison can fail.
func TestGateRejectsPerturbedDigest(t *testing.T) {
	for _, w := range workloads {
		seeds := pinned[w.name]
		if len(seeds) == 0 {
			t.Fatalf("%s has no pinned digests", w.name)
		}
		for seed, want := range seeds {
			flip := "0"
			if want[0] == '0' {
				flip = "1"
			}
			gate := func(digest string) gateResult {
				return checkRun(workload{name: w.name}, 1, nil, nil, []roundResult{{seed: seed, digest: digest}})
			}
			if g := gate(flip + want[1:]); g.ok {
				t.Errorf("%s seed %d: perturbed digest passed: %s", w.name, seed, g.detail)
			}
			if g := gate(want); !g.ok {
				t.Errorf("%s seed %d: pinned digest failed: %s", w.name, seed, g.detail)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{90 * minRounds, 95}, {36 * minRounds, 90}, {20 * minRounds, 90}, {10000, 99.9}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
