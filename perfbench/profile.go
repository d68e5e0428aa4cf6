package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profile is a CPU profile's flat (self) time attributed to modules.
type profile struct {
	path    string
	samples int64
	totalNS int64
	selfNS  map[string]int64
}

// readProfile decodes a gzipped profile.proto as runtime/pprof writes it
// and charges each sample's CPU time to the module of its innermost frame.
// A frame in a standard-library package other than the runtime charges its
// caller instead, so sort or math/rand work lands on the module that asked
// for it; runtime frames (allocation, GC, map and copy helpers) land on
// runtime; samples with no simulator frame land on other.
func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}

	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	top := pb{b: data}
	for top.next() {
		switch top.num {
		case 2: // Sample
			var s sample
			for r := top.sub(); r.next(); {
				switch r.num {
				case 1:
					s.locs = r.ints(s.locs)
				case 2:
					s.vals = r.ints(s.vals)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for r := top.sub(); r.next(); {
				switch r.num {
				case 1:
					id = r.v
				case 4: // Line
					for l := r.sub(); l.next(); {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			for r := top.sub(); r.next(); {
				switch r.num {
				case 1:
					id = r.v
				case 2:
					name = r.v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(top.payload))
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, top.err)
	}

	p := &profile{path: path, selfNS: map[string]int64{}}
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, fmt.Errorf("profile %s: sample with %d values, want count and nanoseconds", path, len(s.vals))
		}
		var names []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					names = append(names, strs[i])
				}
			}
		}
		ns := int64(s.vals[1])
		p.selfNS[moduleOf(names)] += ns
		p.totalNS += ns
		p.samples += int64(s.vals[0])
	}
	return p, nil
}

// moduleOf names the module a stack's self time belongs to; frames are
// innermost first.
func moduleOf(frames []string) string {
	for _, fn := range frames {
		pkg := packageOf(fn)
		switch {
		case strings.HasPrefix(pkg, "mil/internal/"):
			mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "mil/internal/"), "/")
			for _, m := range selfModules {
				if m == mod {
					return mod
				}
			}
			return "other"
		case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
			return "runtime"
		case pkg == "main":
			return "other"
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "mil/internal/memctrl.(*Controller).Tick".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// pb walks the fields of one protobuf message.
type pb struct {
	b       []byte
	err     error
	num     int    // current field number
	wire    int    // current wire type
	v       uint64 // current varint or fixed value
	payload []byte // current length-delimited payload
}

var errTruncated = errors.New("truncated protobuf")

func (p *pb) varint() uint64 {
	var x uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errTruncated
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	p.err = errors.New("overlong varint")
	return 0
}

func (p *pb) take(n uint64) []byte {
	if uint64(len(p.b)) < n {
		p.err = errTruncated
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// next advances to the next field; false at the end or on error.
func (p *pb) next() bool {
	if p.err != nil || len(p.b) == 0 {
		return false
	}
	key := p.varint()
	p.num, p.wire, p.payload = int(key>>3), int(key&7), nil
	switch p.wire {
	case 0:
		p.v = p.varint()
	case 1:
		if b := p.take(8); b != nil {
			p.v = binary.LittleEndian.Uint64(b)
		}
	case 2:
		p.payload = p.take(p.varint())
	case 5:
		if b := p.take(4); b != nil {
			p.v = uint64(binary.LittleEndian.Uint32(b))
		}
	default:
		p.err = fmt.Errorf("protobuf wire type %d", p.wire)
	}
	return p.err == nil
}

// sub returns a reader over the current field's embedded message.
func (p *pb) sub() *pb { return &pb{b: p.payload} }

// ints appends the current repeated integer field, packed or not.
func (p *pb) ints(dst []uint64) []uint64 {
	if p.wire == 0 {
		return append(dst, p.v)
	}
	for r := p.sub(); len(r.b) > 0 && r.err == nil; {
		dst = append(dst, r.varint())
	}
	return dst
}
