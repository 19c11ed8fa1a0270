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

// Layers are the buckets a CPU profile sample can land in: one per module
// of the simulator, the harness that drives it, and three runtime buckets.
// Order is the printing order.
var layers = []string{
	"sim.engine", "sim.shard", "netsim", "tcp", "cca", "iperf", "energy",
	"testbed", "workload", "stats", "cache", "harness",
	"runtime.gc", "runtime.alloc", "runtime.other",
}

// modulePrefix marks a frame as the repository's own code. The benchmark's
// own functions live in package main, so they never match.
const modulePrefix = "greenenvy"

// ownPackages are the internal packages that are layers of their own; the
// root package and every other internal package (registry, scenario, plot,
// core, ...) form the harness.
var ownPackages = map[string]bool{
	"netsim": true, "tcp": true, "cca": true, "iperf": true, "energy": true,
	"testbed": true, "workload": true, "stats": true, "cache": true,
}

// gcFrames are runtime functions doing garbage-collector work: marking,
// sweeping, assists and write barriers. A prefix match suffices because
// the runtime names its collector entry points consistently.
var gcFrames = []string{
	"runtime.gc", "runtime.wbBuf", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
	"runtime.scanConservative", "runtime.greyobject", "runtime.findObject",
	"runtime.shade", "runtime.bulkBarrier", "runtime.(*gcWork)",
	"runtime.(*gcControllerState)", "runtime.(*mspan).sweep",
	"runtime.(*sweepLocked)", "runtime.(*gcBits)", "runtime.markBits",
	"runtime.finishsweep", "runtime.(*mheap).reclaim",
}

// allocFrames are the allocator's entry points.
var allocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.rawstring", "runtime.rawbyteslice", "runtime.rawruneslice",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucket assigns one stack, innermost frame first, to a layer. Frames are
// scanned outwards up to the innermost frame in the module: collector
// work found on the way wins (an assist inside mallocgc is GC, not
// allocation), then allocation; other library frames such as
// sync.(*Mutex).Unlock or map access are charged to the module frame that
// called them. A stack with no module frame is runtime.gc when it is a
// collector worker and runtime.other otherwise.
func bucket(stack []string) string {
	sawAlloc := false
	for _, fn := range stack {
		switch {
		case hasAnyPrefix(fn, gcFrames):
			return "runtime.gc"
		case hasAnyPrefix(fn, allocFrames):
			sawAlloc = true
		case strings.HasPrefix(fn, modulePrefix+".") || strings.HasPrefix(fn, modulePrefix+"/"):
			if sawAlloc {
				return "runtime.alloc"
			}
			return moduleLayer(fn)
		}
	}
	if sawAlloc {
		return "runtime.alloc"
	}
	return "runtime.other"
}

// moduleLayer maps a module function symbol such as
// "greenenvy/internal/sim.(*Conduit[...]).publish" to its layer.
func moduleLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix+"/internal/")
	if !ok {
		return "harness" // the root package
	}
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "harness"
	}
	pkg, sym := rest[:dot], rest[dot+1:]
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "sim" {
		// Everything in sim/shard.go is named after shards or conduits;
		// the rest of the package is the event engine, timers and delay
		// lines.
		if strings.Contains(sym, "Shard") || strings.Contains(sym, "shard") ||
			strings.Contains(sym, "Conduit") || strings.Contains(sym, "conduit") {
			return "sim.shard"
		}
		return "sim.engine"
	}
	if ownPackages[pkg] {
		return pkg
	}
	return "harness"
}

// profileBuckets decodes a gzipped pprof CPU profile and sums each
// sample's CPU nanoseconds into its layer. It also returns the profile's
// total, which the buckets must add up to exactly.
func profileBuckets(gz []byte) (byLayer map[string]int64, total int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer = make(map[string]int64, len(layers))
	for _, l := range layers {
		byLayer[l] = 0
	}
	var stack []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU profiles end with nanoseconds
		stack = stack[:0]
		for _, id := range s.locations {
			// A location lists its inlined functions innermost first.
			for _, fid := range p.locations[id] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		byLayer[bucket(stack)] += v
		total += v
	}
	return byLayer, total, nil
}

// profile is the subset of the pprof profile.proto message a CPU profile
// needs for bucketing.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name index into strings
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

var errProto = errors.New("profile: malformed protobuf")

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case fieldProfileSample:
			var s sample
			if err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fieldSampleLocation:
					return appendVarints(&s.locations, w, v, d, func(x uint64) uint64 { return x })
				case fieldSampleValue:
					return appendVarints(&s.values, w, v, d, func(x uint64) int64 { return int64(x) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case fieldProfileFunction:
			var id uint64
			var name int64
			if err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case fieldProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		for _, id := range s.locations {
			fns, ok := p.locations[id]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", id)
			}
			for _, fid := range fns {
				if name, ok := p.functions[fid]; !ok || name < 0 || name >= int64(len(p.strings)) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", id, fid)
				}
			}
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, which an encoder may
// write packed (one length-delimited run) or as one varint per element.
func appendVarints[T any](dst *[]T, wire int, v uint64, data []byte, conv func(uint64) T) error {
	if wire == 0 {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, conv(x))
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, its value for varint and fixed-width fields, and
// its bytes for length-delimited ones.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
