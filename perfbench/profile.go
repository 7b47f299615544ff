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

// profGroups are the module groups a CPU profile is split into; their
// shares are the prof.<group>_frac per-layer metrics.
var profGroups = []string{"simtime", "netsim", "cluster", "hdfs", "tracer", "bus", "runtime", "other"}

// repoGroup maps a repository package to its group; repository packages
// not listed (hbase, yarn, mapreduce, scenario, ...) count as other.
var repoGroup = map[string]string{
	"repro/internal/simtime":    "simtime",
	"repro/internal/netsim":     "netsim",
	"repro/internal/cluster":    "cluster",
	"repro/internal/hdfs":       "hdfs",
	"repro/internal/bus":        "bus",
	"repro/internal/wire":       "bus",
	"repro/internal/tracepoint": "tracer",
	"repro/internal/advice":     "tracer",
	"repro/internal/baggage":    "tracer",
	"repro/internal/agent":      "tracer",
	"repro/internal/agg":        "tracer",
	"repro/internal/tuple":      "tracer",
	"repro/internal/plan":       "tracer",
	"repro/internal/query":      "tracer",
	"repro/internal/core":       "tracer",
	"repro/internal/combiner":   "tracer",
	"repro/internal/sampling":   "tracer",
	"repro/internal/spans":      "tracer",
	"repro/internal/telemetry":  "tracer",
	"repro/pivot":               "tracer",
}

// funcPackage returns the import path of a profiled function name such as
// "repro/internal/simtime.(*Env).Sleep" or "container/heap.Push".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// groupOf attributes one sampled stack (function names, leaf first) to
// the nearest repository frame on it, so standard-library and runtime
// work done on a module's behalf (container/heap, map iteration,
// allocation, goroutine hand-off) counts toward that module. Stacks with
// no repository frame are the Go runtime's own (GC workers, scheduler)
// or, when the benchmark's package main is on them, the benchmark's.
func groupOf(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "main" {
			return "other"
		}
		if !strings.HasPrefix(pkg, "repro/") {
			continue
		}
		if g, ok := repoGroup[pkg]; ok {
			return g
		}
		return "other"
	}
	if len(stack) > 0 {
		if leaf := funcPackage(stack[0]); leaf == "runtime" || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "internal/runtime/") {
			return "runtime"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped runtime/pprof CPU profile and returns each
// group's share of sampled CPU time and the number of samples.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byGroup := make(map[string]int64)
	var total, samples int64
	for _, s := range stacks {
		byGroup[groupOf(s.frames)] += s.cpu
		total += s.cpu
		samples += s.count
	}
	shares := make(map[string]float64, len(profGroups))
	for _, g := range profGroups {
		if total > 0 {
			shares[g] = float64(byGroup[g]) / float64(total)
		}
	}
	return shares, samples, nil
}

// stack is one profile sample: frames leaf first, its sample count and
// CPU nanoseconds.
type stack struct {
	frames     []string
	count, cpu int64
}

// decodeProfile reads the fields of the profile.proto message that CPU
// attribution needs: samples, locations, functions and the string table.
// The standard library writes profiles but ships no reader.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					s.vals = appendUints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stack{count: int64(s.vals[0]), cpu: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated varint field in either encoding: one
// value (wire type 0) or a packed run (wire type 2).
func appendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field := int(tag >> 3)
		switch tag & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
