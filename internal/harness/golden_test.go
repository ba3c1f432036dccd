package harness

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current figure bytes")

// goldenFile pins the SHA-256 of every section's canonical bytes at the
// reduced scale below. An intended byte change is made by re-running
// with -update and reviewing the resulting diff of this file.
const goldenFile = "testdata/golden.sha256"

// goldenThreads is the thread count of the sections that take one
// (figure1, table2, mvm).
const goldenThreads = 8

// goldenOptions is the reduced sweep of each section: one seed, the List
// workload (the OLTP tier's mildly skewed kv for figure-oltp).
func goldenOptions(figure string) Options {
	only := "List"
	if figure == "figure-oltp" {
		only = "kv@0.50"
	}
	return Options{Seeds: []uint64{1}, Only: []string{only}}
}

// TestGolden is the report-level check of every mechanism below the
// harness — engines, access sets, caches, paged memory, MVM and the
// batched conductor: each section's canonical bytes must hash to the
// digest checked in under testdata. Regenerate with
//
//	go test ./internal/harness -run TestGolden -update
func TestGolden(t *testing.T) {
	got := map[string]string{}
	for _, fig := range FigureNames {
		b, err := RenderFigureText(fig, goldenThreads, goldenOptions(fig))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s rendered no bytes", fig)
		}
		sum := sha256.Sum256(b)
		got[fig] = hex.EncodeToString(sum[:])
	}
	if *update {
		var buf bytes.Buffer
		buf.WriteString("# SHA-256 of each section's canonical bytes (seed 1, List; figure-oltp: kv@0.50;\n")
		fmt.Fprintf(&buf, "# %d threads where a section takes a count). Regenerate with\n", goldenThreads)
		buf.WriteString("#   go test ./internal/harness -run TestGolden -update\n")
		for _, fig := range FigureNames {
			fmt.Fprintf(&buf, "%s %s\n", fig, got[fig])
		}
		if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, fig := range FigureNames {
		w, ok := want[fig]
		if !ok {
			t.Errorf("%s: no digest in %s (run with -update)", fig, goldenFile)
			continue
		}
		if got[fig] != w {
			t.Errorf("%s: bytes hash to %s, %s pins %s", fig, got[fig], goldenFile, w)
		}
	}
	for fig := range want {
		if _, ok := got[fig]; !ok {
			t.Errorf("%s pins unknown section %q", goldenFile, fig)
		}
	}
}

// readGolden parses the "<section> <sha256>" lines of goldenFile.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
