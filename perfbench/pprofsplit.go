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

// profileModules are the buckets a CPU profile's self time is split into:
// one per simulator or service package the benchmark reports on, plus
// "runtime" (the Go runtime, GC included) and "other" (everything else —
// the standard library, the benchmark itself, and the remaining internal
// packages).
var profileModules = []string{
	"sim", "cpu", "cache", "trace", "memctrl", "sched", "dram", "core",
	"paging", "obs", "serve", "tenant", "fleet", "runtime", "other",
}

// moduleOf maps a fully qualified function name from a Go profile to its
// bucket in profileModules.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "dbpsim/internal/"):
		rest := strings.TrimPrefix(fn, "dbpsim/internal/")
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range profileModules {
			if m == rest {
				return m
			}
		}
	}
	return "other"
}

// selfShares decodes a gzipped pprof CPU profile and returns each module's
// share of total sampled CPU time, attributing every sample to the module
// of its leaf frame (the innermost inlined function at the first location).
func selfShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byModule := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		name := ""
		if loc, ok := p.locFunc[s.locs[0]]; ok {
			name = p.funcName[loc]
		}
		byModule[moduleOf(name)] += v
		total += v
	}
	out := make(map[string]float64, len(profileModules))
	for _, m := range profileModules {
		if total > 0 {
			out[m] = byModule[m] / total
		} else {
			out[m] = 0
		}
	}
	return out, nil
}

// pprofData is the part of profile.proto the split needs.
type pprofData struct {
	samples  []pprofSample
	locFunc  map[uint64]uint64 // location id → leaf function id
	funcName map[uint64]string // function id → name
}

type pprofSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the uncompressed profile.proto message. Field
// numbers: Profile{2 sample, 4 location, 5 function, 6 string_table},
// Sample{1 location_id, 2 value}, Location{1 id, 4 line},
// Line{1 function_id}, Function{1 id, 2 name}.
func decodeProfile(b []byte) (*pprofData, error) {
	p := &pprofData{locFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := walkFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s pprofSample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendUvarints(s.locs, w, v, d)
				case 2:
					for _, u := range appendUvarints(nil, w, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id, fn uint64
			haveLine := false
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil // lines after the first are callers it was inlined into
					}
					haveLine = true
					return walkFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFunc[id] = fn
		case 5:
			var id, name uint64
			err := walkFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

// appendUvarints appends a repeated integer field, which is either one
// varint (wire type 0) or a packed run of varints (wire type 2).
func appendUvarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for every field of a protobuf message: varints pass v,
// length-delimited fields pass data; fixed-width fields are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
