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

// cpuLayers are the buckets a CPU profile is reduced to, in report
// order: the repository's modules, then the benchmark's own code,
// net/http with encoding/json, the garbage collector, the rest of the
// runtime, and everything else.
var cpuLayers = []string{
	"sim", "noc", "dram", "cache", "dsu", "memguard", "mpam", "core", "audit",
	"netcalc", "telemetry", "rmserver", "admission", "trace",
	"perfbench", "nethttp", "runtime.gc", "runtime", "other",
}

// layerOfFunc maps a fully qualified Go function name to its bucket.
// known is false for standard-library packages that belong to no layer
// of their own (sort, strconv, math, ...) and for runtime helpers that
// do the caller's work (map access, hashing, copying): the reducer then
// charges the sample to the nearest caller that has a layer.
func layerOfFunc(fn string) (layer string, known bool) {
	pkg, name := splitFunc(fn)
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		for _, l := range cpuLayers {
			if l == mod {
				return mod, true
			}
		}
		return "other", true
	case pkg == "main" || strings.HasPrefix(pkg, "repro/perfbench"):
		return "perfbench", true
	case pkg == "encoding/json" || pkg == "net" || strings.HasPrefix(pkg, "net/") ||
		pkg == "syscall" || pkg == "internal/poll":
		return "nethttp", true
	case pkg == "internal/runtime/maps" || pkg == "internal/runtime/syscall" ||
		pkg == "runtime" && isHelperFunc(name):
		return "other", false
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		if isGCFunc(name) {
			return "runtime.gc", true
		}
		return "runtime", true
	}
	return "other", false
}

// splitFunc splits "repro/internal/noc.(*router).kick" into its package
// path and the rest.
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

// isHelperFunc reports whether a runtime function does its caller's
// work in place (map access, hashing, copying, string operations), so
// its samples belong to the caller's layer.
func isHelperFunc(name string) bool {
	for _, p := range []string{"map", "mem", "aeshash", "f64hash", "f32hash", "strhash", "nilinterhash", "interhash",
		"cmpstring", "concatstring", "slicebytetostring", "stringtoslicebyte", "growslice", "typedmemmove", "typedslicecopy"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// isGCFunc reports whether a runtime function belongs to the garbage
// collector (marking, sweeping, scanning, write barriers) rather than
// to allocation or scheduling.
func isGCFunc(name string) bool {
	if strings.HasPrefix(name, "mallocgc") {
		return false
	}
	for _, s := range []string{"gc", "GC", "mark", "sweep", "scan", "greyobject", "findObject", "wbBuf", "Barrier", "heapBits"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// cpuShares reduces a gzipped pprof CPU profile to each bucket's share
// of sampled CPU time, by the package of the sampled leaf frame (walking
// up past standard-library helpers that belong to no layer).
func cpuShares(gz []byte) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	return reduceShares(samples), nil
}

// reduceShares charges each sample to the layer of its leaf frame (or
// nearest caller with a layer) and returns each layer's share.
func reduceShares(samples []profSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		layer := "other"
		for _, fn := range s.stack {
			l, known := layerOfFunc(fn)
			if known {
				layer = l
				break
			}
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}

// profSample is one decoded sample: its stack, leaf first, as function
// names (inlined frames expanded), and its CPU value.
type profSample struct {
	stack []string
	value int64
}

// parseProfile decodes the subset of profile.proto a CPU profile needs:
// samples (field 2), locations (4), functions (5) and the string table
// (6). It reads the last sample value, the CPU nanoseconds.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location -> function IDs, leaf first
		fnName  = map[uint64]int64{}    // function -> string index
		strs    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f int, v uint64, _ []byte) error {
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
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	var out []profSample
	for _, s := range samples {
		ps := profSample{}
		if len(s.values) > 0 {
			ps.value = s.values[len(s.values)-1]
		}
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				if idx := fnName[fid]; idx >= 0 && idx < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated integer field's values: either one
// varint (v) or, when packed, the varints inside b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for each field of a protobuf message: varint
// fields get v (b nil), length-delimited fields get b.
func walkFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
