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

// Per-layer CPU shares from a runtime/pprof CPU profile, decoded with the
// standard library alone: the profile is a gzipped profile.proto message,
// of which only samples, locations, functions and the string table are
// read.

// internalPrefix marks the simulator's packages in function names.
const internalPrefix = "repro/internal/"

// cpuLayers are the layers reported with their own share. Helper packages
// count toward the layer they serve; every other internal package is
// "other", and a sample with no internal frame at all (the garbage
// collector, the scheduler) is "runtime".
var cpuLayers = map[string]string{
	"workload": "workload", "rng": "workload",
	"sim": "sim", "stats": "sim", "ids": "sim",
	"coherence":    "coherence",
	"memsys":       "memsys",
	"interconnect": "interconnect",
	"event":        "event",
	"exp":          "exp",
}

// layerOf maps a function name to its layer, or "" outside repro/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if layer, ok := cpuLayers[rest]; ok {
		return layer
	}
	return "other"
}

// cpuShares returns every layer's share of a CPU profile's sampled time,
// runtime included; the shares sum to 1. Each sample belongs to the
// innermost repro/internal frame on its stack.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{"runtime": 0, "other": 0}
	for _, layer := range cpuLayers {
		shares[layer] = 0
	}
	var total float64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fn := range p.locations[loc] { // innermost inlined call first
				if l := layerOf(p.strings[p.functions[fn]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	for layer := range shares {
		shares[layer] = ratio(shares[layer], total)
	}
	return shares, nil
}

type profileSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU time in ns
}

type profile struct {
	samples   []profileSample
	locations map[uint64][]uint64 // location ID -> function IDs
	functions map[uint64]int64    // function ID -> name's string index
	strings   []string
}

// Field numbers of profile.proto.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileString   = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fieldProfileSample:
			var s profileSample
			var values []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fieldSampleLocation:
					return appendRepeated(&s.locs, v, b)
				case fieldSampleValue:
					return appendRepeated(&values, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fieldProfileString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.functions {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendRepeated appends a repeated varint field's value: one varint, or a
// packed run of them.
func appendRepeated(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: v carries a
// varint's value, b a length-delimited field's bytes (nil otherwise).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0: // varint
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1: // fixed64
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated field")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
