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

// foldInto adds prefix+layer+".cpu_frac" for every layer: the share of the
// profile's CPU samples whose leaf frame belongs to that layer.
func foldInto(into map[string]float64, prefix string, profile []byte) error {
	shares, err := foldProfile(profile)
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	for _, l := range cpuLayers {
		into[prefix+l+".cpu_frac"] = shares[l]
	}
	return nil
}

// foldProfile reads a gzipped pprof CPU profile and returns, per layer,
// the share of samples whose leaf (innermost, inlined included) function
// belongs to it. Samples labelled offClockLabel are left out. It decodes
// only the few profile.proto fields it needs.
func foldProfile(data []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	if len(data) == 0 {
		return shares, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		leaf      uint64 // location ID of the leaf frame
		count     int64
		labelKeys []uint64 // string table indexes
	}
	var (
		samples  []sample
		locLeaf  = map[uint64]uint64{} // location ID -> leaf function ID
		funcName = map[uint64]int64{}  // function ID -> string table index
		strs     []string
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals, keys []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				case 3: // Label
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							keys = append(keys, v)
						}
						return nil
					})
				}
				return nil
			})
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0]), labelKeys: keys})
			}
			return err
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if seenLine {
						return nil
					}
					seenLine = true
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
		return nil, err
	}
	str := func(idx uint64) string {
		if idx < uint64(len(strs)) {
			return strs[idx]
		}
		return ""
	}
	var total float64
samples:
	for _, s := range samples {
		for _, k := range s.labelKeys {
			if str(k) == offClockLabel {
				continue samples
			}
		}
		name := ""
		if fn, ok := locLeaf[s.leaf]; ok {
			if idx, ok := funcName[fn]; ok && idx >= 0 && idx < int64(len(strs)) {
				name = strs[idx]
			}
		}
		shares[layerOf(name)] += float64(s.count)
		total += float64(s.count)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf maps a function name to the layer it is charged to: the
// repository package under moca/internal (core, profile, classify and heap
// fold into core), json for encoding/json and reflect, gc for the
// collector and allocator, runtime for the rest of the standard library,
// and other for what remains (obs, power, stats, the moca package and the
// benchmark itself, whose functions are main.* in the binary and
// moca/bench.* in its test).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "moca/internal/"):
		pkg := fn[len("moca/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "core", "profile", "classify", "heap":
			return "core"
		case "event", "mem", "cpu", "cache", "vm", "workload", "sim", "alloc", "trace", "exp", "wire":
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "encoding/json."), strings.HasPrefix(fn, "reflect."):
		return "json"
	case strings.HasPrefix(fn, "runtime.") && isGC(fn[len("runtime."):]):
		return "gc"
	case fn == "", strings.HasPrefix(fn, "moca"), strings.HasPrefix(fn, "main."):
		return "other"
	}
	return "runtime"
}

// gcMarkers are substrings of runtime function names that belong to the
// garbage collector or the allocator.
var gcMarkers = []string{
	"gc", "GC", "malloc", "mark", "scan", "sweep", "span", "Span", "heap", "mcache", "mcentral",
	"scav", "Barrier", "wbBuf", "memclr", "greyobject", "findObject", "typePointers",
	"nextFree", "newobject", "makeslice", "growslice", "Alloc",
}

func isGC(fn string) bool {
	for _, m := range gcMarkers {
		if strings.Contains(fn, m) {
			return true
		}
	}
	return false
}

// appendPacked appends a repeated varint field's values, whether the
// encoder packed them (b holds several varints) or not (v holds one).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its scalar value or, for length-delimited fields, its
// bytes (nil for scalars).
func protoFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
