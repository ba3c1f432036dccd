package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pbuf is a minimal protobuf encoder for building synthetic profiles.
type pbuf []byte

func (p *pbuf) key(num, wire int) { *p = binary.AppendUvarint(*p, uint64(num)<<3|uint64(wire)) }

func (p *pbuf) uint(num int, v uint64) {
	p.key(num, 0)
	*p = binary.AppendUvarint(*p, v)
}

func (p *pbuf) msg(num int, b []byte) {
	p.key(num, 2)
	*p = binary.AppendUvarint(*p, uint64(len(b)))
	*p = append(*p, b...)
}

func (p *pbuf) packed(num int, vs ...uint64) {
	var b pbuf
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.msg(num, b)
}

// synthProfile encodes a CPU profile whose samples have the given stacks
// (leaf first; a frame "a+b" is one location where a is inlined into b)
// and CPU nanoseconds. Odd samples use
// unpacked repeated fields, even ones packed, as both are valid encodings.
func synthProfile(t *testing.T, stacks [][]string, ns []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof pbuf
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pbuf
		vt.uint(1, intern(st[0]))
		vt.uint(2, intern(st[1]))
		prof.msg(1, vt)
	}
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	var funcs, locs []pbuf
	for i, stack := range stacks {
		var ids []uint64
		for _, frame := range stack {
			if _, ok := locID[frame]; !ok {
				var loc pbuf
				locID[frame] = uint64(len(locID) + 1)
				loc.uint(1, locID[frame])
				for _, fn := range strings.Split(frame, "+") {
					if _, ok := funcID[fn]; !ok {
						funcID[fn] = uint64(len(funcID) + 1)
						var f pbuf
						f.uint(1, funcID[fn])
						f.uint(2, intern(fn))
						funcs = append(funcs, f)
					}
					var line pbuf
					line.uint(1, funcID[fn])
					loc.msg(4, line)
				}
				locs = append(locs, loc)
			}
			ids = append(ids, locID[frame])
		}
		var s pbuf
		if i%2 == 0 {
			s.packed(1, ids...)
			s.packed(2, 1, uint64(ns[i]))
		} else {
			for _, id := range ids {
				s.uint(1, id)
			}
			s.uint(2, 1)
			s.uint(2, uint64(ns[i]))
		}
		prof.msg(2, s)
	}
	for _, l := range locs {
		prof.msg(4, l)
	}
	for _, f := range funcs {
		prof.msg(5, f)
	}
	for _, s := range strs {
		prof.msg(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestBucketSyntheticProfile(t *testing.T) {
	cases := []struct {
		stack []string
		ns    int64
		want  string
	}{
		// Allocation folds into its nearest repro caller.
		{[]string{"runtime.mallocgc", "repro/internal/mem.(*Paged[go.shape.uint64]).Get", "repro/internal/core.(*txn).Read"}, 1, "mem"},
		// A coroutine switch on g0 with no repro frame is the conductor's.
		{[]string{"runtime.casgstatus", "runtime.coroswitch_m", "runtime.mcall"}, 2, "sched"},
		{[]string{"iter.Pull[go.shape.struct {}].func1", "runtime.corostart"}, 4, "sched"},
		// Background GC with no repro frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 8, "runtime.gc"},
		// A GC assist folds into the allocating repro caller.
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/aset.(*LineSet).grow"}, 16, "aset"},
		// The innermost inlined frame of a location wins.
		{[]string{"repro/internal/cache.(*level).probe+repro/internal/cache.(*Hierarchy).Access", "repro/internal/core.(*txn).Read"}, 32, "cache"},
		// Closures of generic functions belong to their package.
		{[]string{"repro/internal/exp.runWarm[...].func1", "runtime.goexit"}, 64, "exp"},
		// No repro frame, not GC; and a repro package outside the layers.
		{[]string{"runtime.memclrNoHeapPointers", "repro/perfbench.main"}, 128, "other"},
		{[]string{"repro/internal/lint.Run"}, 256, "other"},
		// The same bucket twice sums.
		{[]string{"repro/internal/sched.(*Sim).Run"}, 512, "sched"},
	}
	var stacks [][]string
	var ns []int64
	want := map[string]int64{}
	for _, c := range cases {
		stacks = append(stacks, c.stack)
		ns = append(ns, c.ns)
		want[c.want] += c.ns
	}
	got, err := bucketProfile(synthProfile(t, stacks, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("bucket %s = %d ns, want %d (all: %v)", l, got[l], n, got)
		}
	}
}

func TestDecodeRejectsTruncatedProfile(t *testing.T) {
	gz := synthProfile(t, [][]string{{"repro/internal/sched.(*Sim).Run"}}, []int64{1})
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := decodeProfile(cut.Bytes()); err == nil {
		t.Fatal("decoding a truncated profile succeeded")
	}
}

// spin burns CPU in a named frame the real-profile test looks for.
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeRuntimeProfile decodes a profile written by runtime/pprof, so
// the decoder is checked against the real encoder and not only against
// the synthetic one above.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.cpuNs
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.cpuNs
				break
			}
		}
	}
	if total <= 0 || inSpin < total/2 {
		t.Fatalf("decoded %d samples, %d ns of which %d in spin", len(samples), total, inSpin)
	}
}
