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

// The traced run attributes every CPU-profile and allocation-profile
// sample to one bucket: a layer named after the innermost frame from this
// module's packages, or one of the buckets below for samples no layer
// owns.
const (
	bucketBench   = "bench"   // the benchmark's own code: wrappers, verification
	bucketGC      = "gc"      // garbage collector work
	bucketSched   = "sched"   // runtime-only CPU stacks: goroutine switching, idle spinning
	bucketRuntime = "runtime" // runtime-only allocation stacks
	bucketOther   = "other"   // module packages that are not a named layer
)

// layers are the module packages reported individually.
var layers = []string{"sim", "mpi", "pfs", "simfs", "plfs", "adio", "payload", "extent", "osfs", "localcomm"}

// benchLabel is the pprof label the benchmark puts on its own
// verification work, so that payload comparisons it makes are not
// charged to the payload layer.
const benchLabel = "perfbench"

const modulePrefix = "plfs/internal/"

// isGCFrame reports whether a runtime function belongs to the garbage
// collector: background mark workers, mutator assists, sweeping and
// scavenging.
func isGCFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") {
		return true
	}
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
		"runtime.scanstack", "runtime.greyobject", "runtime._GC", "runtime.GC":
		return true
	}
	return false
}

// layerOf maps a function name to the module package it belongs to
// ("" for functions outside the module).  The benchmark's package main
// maps to bucketBench.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "plfs/perfbench") {
		return bucketBench
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return bucketOther
}

// attribute assigns one sample to its bucket.  frames run from the leaf
// (innermost, inlined frames first) to the root.  Order of precedence:
// the benchmark's label, then any garbage-collector frame, then the
// innermost frame from this module, and finally the runtime-only
// fallback (sched for CPU samples, runtime for allocations).
func attribute(frames []string, labels map[string]string, runtimeOnly string) string {
	if labels[benchLabel] != "" {
		return bucketBench
	}
	for _, fn := range frames {
		if isGCFrame(fn) {
			return bucketGC
		}
	}
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return runtimeOnly
}

// profileSample is one decoded sample: its stack (leaf first, with
// inlined frames expanded), its values and its string labels.
type profileSample struct {
	frames []string
	values []int64
	labels map[string]string
}

// profile is the subset of a pprof profile the attribution needs.
type profile struct {
	sampleTypes []string // "type/unit" per value index
	samples     []profileSample
}

// valueIndex returns the index of the sample value of the given type
// ("cpu", "alloc_space", ...).
func (p *profile) valueIndex(typ string) (int, error) {
	for i, st := range p.sampleTypes {
		if t, _, _ := strings.Cut(st, "/"); t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", typ, p.sampleTypes)
}

// buckets sums the value of the given type per attribution bucket.
func (p *profile) buckets(typ, runtimeOnly string) (map[string]int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[attribute(s.frames, s.labels, runtimeOnly)] += s.values[vi]
		}
	}
	return out, nil
}

// parseProfile decodes a (possibly gzipped) pprof protobuf as written by
// runtime/pprof.  Only the fields the attribution reads are decoded: the
// standard library has no profile parser, and the benchmark takes no
// dependencies.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	type rawLine struct{ fn uint64 }
	var (
		strs      []string
		types     [][2]int64
		samples   []rawSample
		locs      = map[uint64][]rawLine{}
		funcNames = map[uint64]int64{}
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l [2]int64
					err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							l[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []rawLine
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var ln rawLine
					err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							ln.fn = v
						}
						return nil
					})
					lines = append(lines, ln)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, rs := range samples {
		s := profileSample{values: rs.values}
		for _, id := range rs.locs {
			for _, ln := range locs[id] { // innermost inlined frame first
				s.frames = append(s.frames, str(funcNames[ln.fn]))
			}
		}
		for _, l := range rs.labels {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(l[0])] = str(l[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each field of a protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
