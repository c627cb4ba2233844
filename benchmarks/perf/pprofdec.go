package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A minimal decoder for the CPU profiles runtime/pprof writes (gzipped
// profile.proto): it needs only each sample's count and the name of
// the function its leaf frame is in. The standard library has no
// public decoder and the harness may import nothing else.

var errProfile = errors.New("malformed profile")

// pbField is one decoded protobuf field: a varint (wire type 0) or a
// length-delimited payload (wire type 2). Other wire types are skipped.
type pbField struct {
	num  int
	v    uint64
	data []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

func pbNext(b []byte) (pbField, []byte, error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3)}
	switch key & 7 {
	case 0:
		f.v, b, err = pbVarint(b)
	case 1:
		if len(b) < 8 {
			return f, nil, errProfile
		}
		b = b[8:]
	case 2:
		var n uint64
		if n, b, err = pbVarint(b); err == nil {
			if n > uint64(len(b)) {
				return f, nil, errProfile
			}
			f.data, b = b[:n], b[n:]
		}
	case 5:
		if len(b) < 4 {
			return f, nil, errProfile
		}
		b = b[4:]
	default:
		return f, nil, errProfile
	}
	return f, b, err
}

// pbUints reads a repeated uint64 field occurrence, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(into, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// leafSamples decodes a gzipped CPU profile into sample counts keyed by
// the name of each sample's leaf function (the innermost inlined
// function of the first location).
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> function id of its first line
	funcName := map[uint64]uint64{} // function id -> string table index
	var strs []string
	for b := raw; len(b) > 0; {
		var f pbField
		if f, b, err = pbNext(b); err != nil {
			return nil, err
		}
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			var locs, vals []uint64
			for sb := f.data; len(sb) > 0; {
				var sf pbField
				if sf, sb, err = pbNext(sb); err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					locs, err = pbUints(sf, locs)
				case 2:
					vals, err = pbUints(sf, vals)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[0])})
			}
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id, fn uint64
			seenLine := false
			for lb := f.data; len(lb) > 0; {
				var lf pbField
				if lf, lb, err = pbNext(lb); err != nil {
					return nil, err
				}
				switch {
				case lf.num == 1:
					id = lf.v
				case lf.num == 4 && !seenLine:
					seenLine = true
					for nb := lf.data; len(nb) > 0; {
						var nf pbField
						if nf, nb, err = pbNext(nb); err != nil {
							return nil, err
						}
						if nf.num == 1 {
							fn = nf.v
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for fb := f.data; len(fb) > 0; {
				var ff pbField
				if ff, fb, err = pbNext(fb); err != nil {
					return nil, err
				}
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.leaf]]
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("%w: string index %d of %d", errProfile, idx, len(strs))
		}
		out[strs[idx]] += s.count
	}
	return out, nil
}

// layerPrefixes maps a leaf function's package to the layer that owns
// its self time. Order matters: the first match wins.
var layerPrefixes = []struct{ prefix, layer string }{
	{"xbgas/internal/mem.", "mem"},
	{"xbgas/internal/fabric.", "fabric"},
	{"xbgas/internal/xbrtime.", "xbrtime"},
	{"xbgas/internal/core.", "core"},
	{"xbgas/internal/bench.", "bench"},
	{"main.", "bench"},                  // the harness itself, built as a command
	{"xbgas/benchmarks/perf.", "bench"}, // and under go test
	{"xbgas/internal/sim.", "sim"},
	{"xbgas/internal/olb.", "sim"},
	{"xbgas/internal/isa.", "sim"},
	{"xbgas/internal/obs.", "obs"},
}

// goRuntimePkgs are the standard-library packages whose self time is
// the Go runtime's: scheduler, sync, memmove, GC, and what the harness
// itself calls while a pass runs.
var goRuntimePkgs = []string{"runtime", "sync", "internal/", "syscall", "time", "sort", "slices", "math",
	"bytes", "strings", "strconv", "fmt", "encoding/", "compress/", "hash/", "reflect", "unicode", "io", "os", "errors"}

// layerOf buckets a leaf function name; "" means no bucket claims it.
func layerOf(fn string) string {
	for _, p := range layerPrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	// Assembly routines (memmove, memclr, aeshash bodies) carry no
	// package qualifier or sit in runtime.
	if !strings.Contains(fn, ".") {
		return "goruntime"
	}
	for _, p := range goRuntimePkgs {
		if strings.HasPrefix(fn, p) {
			return "goruntime"
		}
	}
	return ""
}

// layerShares turns leaf sample counts into each layer's share of the
// bucketed samples, plus the share of all samples that found a bucket
// and the functions that found none.
func layerShares(leaves map[string]int64) (shares map[string]float64, coverage float64, unclaimed []string) {
	counts := map[string]int64{}
	var total, covered int64
	for fn, n := range leaves {
		total += n
		if l := layerOf(fn); l != "" {
			counts[l] += n
			covered += n
		} else {
			unclaimed = append(unclaimed, fn)
		}
	}
	sort.Strings(unclaimed)
	shares = map[string]float64{}
	if covered == 0 {
		return shares, 0, unclaimed
	}
	for _, l := range layers {
		shares[l] = float64(counts[l]) / float64(covered)
	}
	return shares, float64(covered) / float64(total), unclaimed
}
