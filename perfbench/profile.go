package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A stdlib-only reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto) and the bucketer that charges each sample to one layer of
// this repository.

// layers are the buckets a CPU sample can land in, in report order. The
// repro/internal packages are the layers; "runtime.gc" holds GC work with
// no repro frame on its stack, and "other" everything else with no repro
// frame (the profiler, the benchmark's own bookkeeping, idle runtime).
var layers = []string{
	"exp", "harness", "report", "micro", "stamp", "oltp", "sched", "cache",
	"mvm", "clock", "aset", "mem", "core", "twopl", "sontm", "tm", "txlib",
	"runtime.gc", "other",
}

// coroutineFrames are the Go-runtime functions of a coroutine switch; a
// sample inside one belongs to the conductor (sched), which drives every
// simulated thread as an iter.Pull coroutine.
var coroutineFrames = []string{"runtime.coroswitch", "runtime.corostart", "runtime.coroexit", "iter.Pull"}

// gcRoots are the entry points of the runtime's background GC work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// bucketOf charges one sample, given its stack as function names from the
// leaf (innermost, inlined frames expanded) to the root. The innermost
// repro/internal frame wins, so Go-runtime work (allocation, map access,
// GC assists) folds into its nearest repro caller; a coroutine-switch
// frame met before any repro frame charges sched.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if slices.Contains(layers, pkg) {
				return pkg
			}
			return "other"
		}
		if hasAnyPrefix(fn, coroutineFrames) {
			return "sched"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcRoots) {
			return "runtime.gc"
		}
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profileSample is one decoded sample: its stack (leaf first) and CPU
// nanoseconds.
type profileSample struct {
	stack []string
	cpuNs int64
}

// bucketProfile decodes a gzipped CPU profile and sums its CPU
// nanoseconds per layer.
func bucketProfile(gz []byte) (map[string]int64, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		out[bucketOf(s.stack)] += s.cpuNs
	}
	return out, nil
}

// decodeProfile reads the samples of a gzipped profile.proto. Only the
// fields the bucketer needs are decoded: sample_type (1), sample (2),
// location (4), function (5) and string_table (6).
func decodeProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][2]uint64 // sample_type: (type, unit) string indices
		rawSample [][]byte
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			var t [2]uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2:
			rawSample = append(rawSample, b)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	samples := make([]profileSample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(b, func(n int, v uint64, pb []byte) error {
			switch n {
			case 1:
				return eachVarint(v, pb, func(x uint64) { locs = append(locs, x) })
			case 2:
				return eachVarint(v, pb, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		samples = append(samples, profileSample{stack: stack, cpuNs: vals[cpu]})
	}
	return samples, nil
}

// eachField walks the fields of one protobuf message. For varint and
// fixed-width fields fn receives the value; for length-delimited fields it
// receives the payload (and v = 0).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint delivers a repeated varint field that arrived either unpacked
// (one value v, b == nil) or packed (b holds the varints).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
