package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The standard library writes CPU profiles as gzipped protocol buffers
// (github.com/google/pprof/proto/profile.proto) but ships no reader, so
// this file decodes just the fields the layer split needs: samples with
// their location stacks, values and labels; locations with their
// (inlined) line→function lists; functions' names; the string table.

// profSample is one decoded CPU sample.
type profSample struct {
	stack  []uint64 // location ids, leaf first
	value  int64    // CPU nanoseconds (the last sample value)
	labels map[string]string
}

// profile is a decoded CPU profile.
type profile struct {
	samples []profSample
	// funcs maps a location id to its function names, innermost inlined
	// frame first.
	funcs map[uint64][]string
}

type pbField struct {
	num  int
	wire int
	v    uint64 // varint value (wire 0)
	b    []byte // payload (wire 2)
}

var errTruncated = errors.New("pprof: truncated message")

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// pbFields splits one message into its fields.
func pbFields(b []byte, visit func(f pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil {
				return err
			}
			if uint64(len(b)-n) < l {
				return errTruncated
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends a repeated integer field in either packed or plain form.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return dst, err
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile as written by
// runtime/pprof.StartCPUProfile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawLabel struct{ key, str uint64 }
	type rawSample struct {
		stack, values []uint64
		labels        []rawLabel
	}
	var (
		strs      []string
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.stack, err = pbInts(s.stack, g)
				case 2:
					s.values, err = pbInts(s.values, g)
				case 3:
					var l rawLabel
					err = pbFields(g.b, func(h pbField) error {
						switch h.num {
						case 1:
							l.key = h.v
						case 2:
							l.str = h.v
						}
						return nil
					})
					s.labels = append(s.labels, l)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{funcs: make(map[uint64][]string, len(locFuncs))}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, fn := range fns {
			names[i] = str(funcNames[fn])
		}
		p.funcs[id] = names
	}
	for _, s := range samples {
		ps := profSample{stack: s.stack}
		if len(s.values) > 0 {
			ps.value = int64(s.values[len(s.values)-1])
		}
		if len(s.labels) > 0 {
			ps.labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				ps.labels[str(l.key)] = str(l.str)
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

const internalPrefix = "flexio/internal/"

// innermostPackage names the flexio/internal package of the innermost
// frame on the stack that belongs to one ("" when none does), so runtime
// helpers such as memmove, and generic code instantiated for a package's
// types, are charged to the package that called them.
func (p *profile) innermostPackage(stack []uint64) string {
	for _, loc := range stack {
		for _, fn := range p.funcs[loc] {
			if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					return rest[:i]
				}
				return rest
			}
		}
	}
	return ""
}
