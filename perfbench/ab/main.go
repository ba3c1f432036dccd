// Command ab compares the benchmark on two versions of the repository: a
// named git revision (the parent) and the working tree (the change). It
// exports the revision into a temporary tree under .bench_build, replaces
// that tree's perfbench directory with this one so both sides run
// identical benchmark code (each side keeps its own pins.txt, the digests
// of the figures its simulator renders), then runs the benchmark on both
// sides in pairs, alternating which side runs first, for run_seconds of
// BENCHMARK.json each. Each pair uses its own seed on both sides. For
// every end-to-end metric it reports both sides' medians and quartiles,
// the fraction of pairs the change won (ties count for neither) and a
// verdict. It also reports each side's failed cells; no gain counts while
// the change fails more cells than the parent.
//
//	cd perfbench && go run ./ab -rev HEAD~1 -workload paper-fig7 -pairs 10
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		rev      = flag.String("rev", "", "git revision to compare the working tree against (required)")
		workload = flag.String("workload", "paper-fig7", "benchmark workload")
		pairs    = flag.Int("pairs", 10, "parent/change pairs to run (at least 10 for a claim)")
		seed     = flag.Uint64("seed", 1, "seed of the first pair; pair i uses seed+i on both sides")
	)
	flag.Parse()
	if err := run(*rev, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run(rev, workload string, pairs int, seed uint64) error {
	if rev == "" || pairs < 1 {
		return errors.New("need -rev and -pairs >= 1")
	}
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("locate the repository: %w", err)
	}
	root := strings.TrimSpace(string(out))
	var sp spec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	base := filepath.Join(tmp, "parent")
	if err := exportRev(root, rev, base); err != nil {
		return err
	}
	// A parent without the benchmark pins nothing: its rounds are all
	// checked by the shape checks alone.
	pinsPath := filepath.Join(base, "perfbench", "pins.txt")
	pins, err := os.ReadFile(pinsPath)
	if errors.Is(err, os.ErrNotExist) {
		pins, err = []byte("# "+rev+" pins no figure digests.\n"), nil
	}
	if err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(base, "perfbench")); err != nil {
		return err
	}
	if err := copyTree(filepath.Join(root, "perfbench"), filepath.Join(base, "perfbench")); err != nil {
		return err
	}
	if err := os.WriteFile(pinsPath, pins, 0o644); err != nil {
		return err
	}

	sides := [2]string{base, root}
	names := [2]string{"parent", "change"}
	vals := [2]map[string][]float64{{}, {}}
	var attempted, failed, incorrect [2]int
	for i := 0; i < pairs; i++ {
		s := seed + uint64(i)
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			res, err := bench(sides[side], workload, s, sp.RunSeconds)
			if err != nil {
				return fmt.Errorf("%s, pair %d: %w", names[side], i, err)
			}
			attempted[side] += res.Attempted
			failed[side] += res.Failed
			if !res.Correct {
				incorrect[side]++
				fmt.Fprintf(os.Stderr, "pair %d seed %d %s: output failed the correctness gate\n", i, s, names[side])
			}
			for name, m := range res.Metrics {
				vals[side][name] = append(vals[side][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "pair %d seed %d %s: wall_s %.4f\n", i, s, names[side], res.Metrics["wall_s"].Value)
		}
	}

	fmt.Printf("A/B %s on %s: parent %s vs working tree, %d pairs of %d s runs\n", workload, filepath.Base(root), rev, pairs, sp.RunSeconds)
	for side, name := range names {
		fmt.Printf("%s: %d of %d cells failed, %d of %d runs failed the correctness gate\n",
			name, failed[side], attempted[side], incorrect[side], pairs)
	}
	failsMore := failed[1] > failed[0]
	fmt.Printf("%-20s %-9s %12s %25s %12s %25s %8s %6s  %s\n",
		"metric", "unit", "parent p50", "parent [q1, q3]", "change p50", "change [q1, q3]", "ratio", "won", "verdict")
	for _, m := range sp.EndToEnd {
		p, c := vals[0][m.Name], vals[1][m.Name]
		if len(p) != pairs || len(c) != pairs {
			fmt.Printf("%-20s missing from some runs\n", m.Name)
			continue
		}
		lower := m.Better == "lower"
		won := 0
		for i := range p {
			if lower && c[i] < p[i] || !lower && c[i] > p[i] {
				won++
			}
		}
		pm, cm := quantile(p, 0.5), quantile(c, 0.5)
		spread := quantile(p, 0.75) - quantile(p, 0.25)
		fmt.Printf("%-20s %-9s %12.5g %25s %12.5g %25s %8.4f %3d/%-2d  %s\n",
			m.Name, m.Unit, pm, quartiles(p), cm, quartiles(c), cm/pm, won, pairs,
			verdict(p, c, lower, m.Bound, won, spread, failsMore))
	}
	return nil
}

// verdict applies the protocol: a gain needs the change to win at least
// nine tenths of the pairs, the medians to differ by more than the
// parent's own quartile spread, and the change to fail no more cells than
// the parent (failsMore); a regression is a median worse than the
// parent's by more than the metric's bound; where the parent's spread is
// wider than the bound the metric is unresolved unless every change run
// beats every parent run.
func verdict(p, c []float64, lower bool, bound float64, won int, spread float64, failsMore bool) string {
	pm, cm := quantile(p, 0.5), quantile(c, 0.5)
	worse := (cm - pm) / pm
	if !lower {
		worse = -worse
	}
	switch {
	case pm == cm:
		return "same"
	case float64(won) >= 0.9*float64(len(p)) && math.Abs(cm-pm) > spread && worse < 0:
		if failsMore {
			return "no gain: fails more"
		}
		return "gain"
	case worse > bound:
		return "regression"
	case spread/pm > bound && !dominates(c, p, lower):
		return "unresolved"
	}
	return "within bound"
}

// dominates reports whether every value of a is better than every value
// of b.
func dominates(a, b []float64, lower bool) bool {
	for _, x := range a {
		for _, y := range b {
			if lower && x >= y || !lower && x <= y {
				return false
			}
		}
	}
	return true
}

// bench runs the benchmark in one tree, from its root, and parses the
// result from the last line of its output.
func bench(dir, workload string, seed uint64, seconds int) (runResult, error) {
	var res runResult
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parse result: %w", err)
	}
	return res, nil
}

// exportRev writes the tree of rev into dir (git archive, unpacked here so
// no git worktree is registered).
func exportRev(root, rev, dir string) error {
	var buf bytes.Buffer
	cmd := exec.Command("git", "-C", root, "archive", "--format=tar", rev)
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	tr := tar.NewReader(&buf)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		target := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(target, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("git archive entry %q leaves the export directory", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(target, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := writeFile(target, tr, os.FileMode(h.Mode)&0o777); err != nil {
				return err
			}
		}
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return err
		}
		return writeFile(target, f, info.Mode().Perm())
	})
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func quartiles(vs []float64) string {
	return fmt.Sprintf("[%.5g, %.5g]", quantile(vs, 0.25), quantile(vs, 0.75))
}

// quantile is the q-quantile of vs by linear interpolation between the
// closest ranks.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
