package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Sample is one CPU-profile sample reduced to what layer bucketing needs:
// the function names of its stack, leaf first (inlined frames expanded),
// and the CPU time it stands for.
type Sample struct {
	Stack []string
	Nanos int64
}

// Layers lists the per-layer self-time buckets in report order. Every
// profile sample lands in exactly one of them (see Layer).
var Layers = []string{
	"core.self_s", "mem.self_s", "queue.self_s", "stage.self_s",
	"apps.self_s", "cgra.self_s", "graph.self_s", "sparse.self_s",
	"btree.self_s", "ycsb.self_s", "ooo.self_s", "bench.self_s",
	"runtime.gc_s", "other.self_s",
}

// repoLayer maps the simulator's packages to their bucket. Subpackages
// (internal/apps/bfs, ...) fall into their parent's bucket.
var repoLayer = map[string]string{
	"fifer/internal/core":   "core.self_s",
	"fifer/internal/mem":    "mem.self_s",
	"fifer/internal/queue":  "queue.self_s",
	"fifer/internal/stage":  "stage.self_s",
	"fifer/internal/apps":   "apps.self_s",
	"fifer/internal/cgra":   "cgra.self_s",
	"fifer/internal/graph":  "graph.self_s",
	"fifer/internal/sparse": "sparse.self_s",
	"fifer/internal/btree":  "btree.self_s",
	"fifer/internal/ycsb":   "ycsb.self_s",
	"fifer/internal/ooo":    "ooo.self_s",
	"fifer/internal/bench":  "bench.self_s",
}

// gcRoots are the runtime functions through which the garbage collector
// spends CPU: background and assist marking, sweeping, scavenging and
// write-barrier buffer flushes. A sample with one of them (or any
// runtime.gc* function) on its stack is GC time, whatever its leaf.
var gcRoots = map[string]bool{
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
	"runtime.markroot":          true,
	"runtime.scanobject":        true,
	"runtime.wbBufFlush":        true,
	"runtime.GC":                true,
}

// Layer returns the bucket of one sample: GC if the collector is anywhere
// on the stack, otherwise the package of the leaf function — self time —
// with everything outside the simulator's layers (the rest of the runtime,
// the standard library, the benchmark itself) in other.self_s.
func Layer(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] || strings.HasPrefix(fn, "runtime.gc") {
			return "runtime.gc_s"
		}
	}
	if len(stack) == 0 {
		return "other.self_s"
	}
	pkg := packageOf(stack[0])
	for p := pkg; ; {
		if l, ok := repoLayer[p]; ok {
			return l
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			return "other.self_s"
		}
		p = p[:i]
	}
}

// packageOf extracts the import path from a Go symbol name such as
// "fifer/internal/core.(*PE).Tick" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Bucket sums samples' CPU seconds per layer. The buckets always add up
// to the samples' total, which is returned alongside.
func Bucket(samples []Sample) (buckets map[string]float64, total float64) {
	buckets = make(map[string]float64, len(Layers))
	for _, l := range Layers {
		buckets[l] = 0
	}
	var ns int64
	for _, s := range samples {
		buckets[Layer(s.Stack)] += float64(s.Nanos) / 1e9
		ns += s.Nanos
	}
	return buckets, float64(ns) / 1e9
}

// OtherPackages splits the other.self_s bucket by the leaf function's
// package, largest first, so the catch-all bucket stays explained.
func OtherPackages(samples []Sample) []string {
	secs := map[string]float64{}
	for _, s := range samples {
		if Layer(s.Stack) == "other.self_s" && len(s.Stack) > 0 {
			secs[packageOf(s.Stack[0])] += float64(s.Nanos) / 1e9
		}
	}
	pkgs := make([]string, 0, len(secs))
	for p := range secs {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return secs[pkgs[i]] > secs[pkgs[j]] })
	for i, p := range pkgs {
		pkgs[i] = fmt.Sprintf("%s %.3fs", p, secs[p])
	}
	return pkgs
}

// ParseCPUProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof into Samples. It reads only what bucketing needs (sample
// stacks and their cpu/nanoseconds value), so it carries no dependency on
// the pprof module.
func ParseCPUProfile(r io.Reader) ([]Sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][2]int64 // sample_type (type, unit) string indices
		funcName  = map[uint64]int64{}
		locFuncs  = map[uint64][]uint64{}
		rawSample [][]byte
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
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
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	valIdx := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	samples := make([]Sample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(b, func(n int, v uint64, pb []byte) error {
			switch n {
			case 1:
				return eachUint(v, pb, func(x uint64) { locs = append(locs, x) })
			case 2:
				return eachUint(v, pb, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("profile: sample: %w", err)
		}
		if valIdx >= len(vals) {
			return nil, errors.New("profile: sample lacks the cpu value")
		}
		var stack []string
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcName[f]))
			}
		}
		samples = append(samples, Sample{Stack: stack, Nanos: vals[valIdx]})
	}
	return samples, nil
}

// eachField walks the top-level fields of a protobuf message, passing the
// field number and either its varint value or, for length-delimited
// fields, its bytes (fixed-width fields are skipped: the profile format
// uses none that bucketing reads).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachUint yields a repeated integer field's values whether it arrived as
// one unpacked varint (packed == nil) or as a packed run.
func eachUint(v uint64, packed []byte, yield func(uint64)) error {
	if packed == nil {
		yield(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		packed = packed[n:]
		yield(x)
	}
	return nil
}
