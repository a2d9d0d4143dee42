package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof profile format (gzip-compressed protobuf,
// github.com/google/pprof/proto/profile.proto): enough to walk each CPU
// sample's stack as function names. Writing the ~100 lines keeps the module
// free of dependencies.

// stackSample is one profile sample: its call stack as function names, leaf
// first, and the number of profiling ticks it stands for.
type stackSample struct {
	stack []string
	count int64
}

// Field numbers of the messages read here.
const (
	profileSample      = 2
	profileLocation    = 4
	profileFunction    = 5
	profileStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("truncated protobuf")

// protoField is one decoded field: a varint value or a length-delimited body.
type protoField struct {
	num    int
	varint uint64
	body   []byte // nil for varint fields
}

// readFields splits a message into its fields. Fixed-width fields, which the
// profile format does not use, are skipped.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := protoField{num: int(tag >> 3)}
		switch tag & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return nil, errTruncated
			}
			f.varint, b = v, b[n:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.body, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
			continue
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", tag&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(f protoField) ([]uint64, error) {
	if f.body == nil {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.body; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes a CPU profile as written by runtime/pprof into its
// samples. The sample count is value 0 ("samples/count").
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile is not gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("decompressing profile: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := make(map[uint64]uint64)   // function id -> string index
	locFuncs := make(map[uint64][]uint64) // location id -> function ids, innermost first
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case profileStringTable:
			strs = append(strs, string(f.body))
		case profileFunction:
			fields, err := readFields(f.body)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fields {
				switch ff.num {
				case functionID:
					id = ff.varint
				case functionName:
					name = ff.varint
				}
			}
			funcName[id] = name
		case profileLocation:
			fields, err := readFields(f.body)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range fields {
				switch lf.num {
				case locationID:
					id = lf.varint
				case locationLine:
					line, err := readFields(lf.body)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == lineFunctionID {
							funcs = append(funcs, x.varint)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case profileSample:
			fields, err := readFields(f.body)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var values []uint64
			for _, sf := range fields {
				vs, err := repeatedVarints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case sampleLocationID:
					s.locs = append(s.locs, vs...)
				case sampleValue:
					values = append(values, vs...)
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// internalPrefix is the import-path prefix of the product's packages.
const internalPrefix = "github.com/mutiny-sim/mutiny/internal/"

// Buckets of samples that never reach a product package.
const (
	bucketGCBackground = "runtime.gc_bg"
	bucketOther        = "other"
)

// productLayers are the packages a sample can be charged to, in report
// order. Every one gets a <pkg>.cpu_share metric, zero included.
var productLayers = []string{
	"sim", "store", "codec", "spec", "apiserver", "controller", "scheduler", "kubelet",
	"netsim", "election", "raft", "inject", "workload", "classify", "cluster", "campaign",
}

// layerOf charges a stack to the package of its innermost frame under
// internal/, so an allocation or a map access made by codec is codec's cost
// and not the runtime's. Stacks that never enter the product are background
// GC work (the collector's own goroutines) or other: the benchmark's own
// frames, the scheduler, the profiler.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			// A method value or generic instantiation may add path
			// elements; the package is the first one.
			pkg, _, _ = strings.Cut(pkg, "/")
			return pkg
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return bucketGCBackground
		}
	}
	return bucketOther
}

// cpuShares returns each bucket's share of all profile ticks, and the
// number of ticks. Packages outside productLayers (a future package, or
// ffda/guard/report) are folded into other so the shares always sum to 1
// over the reported rows.
func cpuShares(samples []stackSample) (map[string]float64, int64) {
	known := make(map[string]bool, len(productLayers))
	for _, l := range productLayers {
		known[l] = true
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		layer := layerOf(s.stack)
		if !known[layer] && layer != bucketGCBackground {
			layer = bucketOther
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	if total > 0 {
		for layer, c := range counts {
			shares[layer] = float64(c) / float64(total)
		}
	}
	return shares, total
}
