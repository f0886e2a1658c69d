package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that runtime/pprof
// writes: just the sample, location, function and string tables, enough to
// attribute every CPU sample to the Go package of its leaf frame.
//
// Field numbers (github.com/google/pprof/proto/profile.proto):
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value
//	Location: 1 id, 4 line (innermost inlined call first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string-table index)

var errProto = errors.New("malformed profile.proto")

// protoField is one decoded field: its number and either a varint or the
// bytes of a length-delimited value.
type protoField struct {
	num  int
	v    uint64
	data []byte // non-nil for wire type 2
}

// readFields decodes one message's top-level fields.
func readFields(b []byte, each func(protoField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0: // varint
			v, n := uvarint(b)
			if n == 0 {
				return errProto
			}
			f.v, b = v, b[n:]
		case 1: // 64-bit
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // 32-bit
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := each(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, f protoField) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// leafPackages returns, for a gzip-compressed CPU profile, the number of
// samples (the profile's first value type) whose leaf frame is in each Go
// package.
func leafPackages(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id -> function id of its innermost line
		funcName = map[uint64]uint64{} // function id -> string-table index of its name
	)
	err = readFields(raw, func(f protoField) error {
		switch f.num {
		case 2:
			var locs, vals []uint64
			err := readFields(f.data, func(f protoField) (err error) {
				switch f.num {
				case 1:
					locs, err = repeatedVarint(locs, f)
				case 2:
					vals, err = repeatedVarint(vals, f)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0])})
			}
		case 4:
			var id, fn uint64
			haveLine := false
			err := readFields(f.data, func(f protoField) error {
				switch {
				case f.num == 1:
					id = f.v
				case f.num == 4 && !haveLine:
					haveLine = true
					return readFields(f.data, func(f protoField) error {
						if f.num == 1 {
							fn = f.v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id, name uint64
			err := readFields(f.data, func(f protoField) error {
				switch f.num {
				case 1:
					id = f.v
				case 2:
					name = f.v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	pkgs := map[string]int64{}
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		pkgs[packageOf(name)] += s.count
	}
	return pkgs, nil
}

// packageOf returns the package part of a symbol name as the Go linker
// writes it: "resilient/internal/netxport.(*Endpoint).flushBatch" gives
// "resilient/internal/netxport". An empty name gives "".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may themselves contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// The layers CPU samples are grouped into: this repo's modules, with the
// syscall and Go-runtime frames kept as their own rows and everything else
// (the rest of the standard library, the repo's smaller packages, this
// harness) in "other", so the shares sum to 1.
var cpuLayers = []string{"msg", "netxport", "transport", "livenet", "log", "runtime", "malicious", "echo", "sample", "syscall", "go", "other"}

func layerOf(pkg string) string {
	const internal = "resilient/internal/"
	switch {
	case pkg == "resilient":
		return "log" // the root package's hot code is log.go and logworkload.go
	case strings.HasPrefix(pkg, internal):
		switch name := pkg[len(internal):]; name {
		case "msg", "netxport", "transport", "livenet", "runtime", "malicious", "echo", "sample":
			return name
		}
		return "other"
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go"
	}
	return "other"
}

// cpuShares turns a CPU profile into each layer's share of the samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	pkgs, err := leafPackages(gz)
	if err != nil {
		return nil, err
	}
	var total int64
	byLayer := map[string]int64{}
	for pkg, n := range pkgs {
		byLayer[layerOf(pkg)] += n
		total += n
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}
