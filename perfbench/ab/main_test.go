package main

import "testing"

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9}
	faster := make([]float64, len(parent))
	for i, v := range parent {
		faster[i] = v * 0.8
	}
	slower := make([]float64, len(parent))
	for i, v := range parent {
		slower[i] = v * 1.3
	}
	spread := quantile(parent, 0.75) - quantile(parent, 0.25)
	for _, c := range []struct {
		name      string
		change    []float64
		won       int
		failsMore bool
		want      string
	}{
		{"gain", faster, 10, false, "gain"},
		{"gain while failing more", faster, 10, true, "no gain: fails more"},
		{"too few pairs won", faster, 8, false, "within bound"},
		{"regression", slower, 0, false, "regression"},
		{"same", parent, 0, false, "same"},
	} {
		if got := verdict(parent, c.change, true, 0.25, c.won, spread, c.failsMore); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
