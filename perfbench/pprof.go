package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, and splits their
// samples by layer: the innermost repro/internal/<layer> frame of each
// stack, with Go runtime work split into gc, malloc and other.

// Buckets that are not a repro/internal layer.
const (
	bucketGC      = "runtime.gc"
	bucketMalloc  = "runtime.malloc"
	bucketRuntime = "runtime.other"
	bucketBench   = "bench"
	bucketOther   = "other"
)

const layerPrefix = "repro/internal/"

// gcFrames are runtime functions whose presence anywhere on a stack marks
// the sample as garbage-collector work (beside every "runtime.gc*" name).
var gcFrames = map[string]bool{
	"runtime.bgsweep":     true,
	"runtime.sweepone":    true,
	"runtime.bgscavenge":  true,
	"runtime.scanobject":  true,
	"runtime.markroot":    true,
	"runtime.wbBufFlush":  true,
	"runtime.wbBufFlush1": true,
	"runtime.GC":          true,
}

// classify names the bucket of one sample from its frames, innermost
// first. GC work wins over allocation, which wins over the layer: an
// allocation made from gpusim is charged to runtime.malloc, the rest of
// gpusim's own time to gpusim. A frame of the benchmark's own package
// met before any layer frame is the benchmark's hook code.
func classify(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || gcFrames[f] {
			return bucketGC
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return bucketMalloc
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return bucketBench
		}
		if rest, ok := strings.CutPrefix(f, layerPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return bucketRuntime
	}
	return bucketOther
}

// cpuProfile is the part of a decoded profile the split needs.
type cpuProfile struct {
	// stacks holds each sample's function names, innermost first.
	stacks [][]string
	// counts holds how many times each stack was sampled.
	counts []int64
}

// splitByLayer divides cpuSeconds, the process CPU time the profile
// covered, among the buckets in proportion to their samples. Scaling by
// measured CPU time keeps the split right whatever rate the kernel's
// timers actually delivered.
func (p *cpuProfile) splitByLayer(cpuSeconds float64) map[string]float64 {
	var total int64
	for _, c := range p.counts {
		total += c
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for i, st := range p.stacks {
		out[classify(st)] += cpuSeconds * float64(p.counts[i]) / float64(total)
	}
	return out
}

// parseCPUProfile decodes a gzipped CPU profile as runtime/pprof writes it.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
		valueIdx  = -1 // index of the samples/count value
		types     [][2]int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s sample
			if err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, bb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for i, t := range types {
		if t[0] >= 0 && t[0] < int64(len(strs)) && t[1] >= 0 && t[1] < int64(len(strs)) &&
			strs[t[0]] == "samples" && strs[t[1]] == "count" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no samples/count sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a count")
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if idx, ok := funcNames[f]; ok && idx >= 0 && idx < int64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, frames)
		p.counts = append(p.counts, s.values[valueIdx])
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
