package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Layers the CPU profile's self time is folded into.
const (
	bucketSim = iota
	bucketFabric
	bucketMPI
	bucketCore
	bucketSched
	bucketGC
	bucketMemmove
	bucketOther
	numBuckets
)

var bucketNames = [numBuckets]string{
	"sim", "fabric", "mpi", "core", "runtime.sched", "runtime.gc", "runtime.memmove", "other",
}

// spanLabel is the pprof label key the benchmark's spans set.
const spanLabel = "span"

// layerPrefixes map the simulator's packages to their buckets.
var layerPrefixes = []struct {
	prefix string
	bucket int
}{
	{"dpml/internal/sim.", bucketSim},
	{"dpml/internal/fabric.", bucketFabric},
	{"dpml/internal/mpi.", bucketMPI},
	{"dpml/internal/core.", bucketCore},
}

// schedFrames are the runtime entry points of goroutine handoff: channel
// operations, parking, waking and the futexes and locks beneath them.
var schedFrames = map[string]bool{
	"runtime.mcall": true, "runtime.park_m": true, "runtime.schedule": true,
	"runtime.findRunnable": true, "runtime.execute": true, "runtime.gogo": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.lock2": true, "runtime.unlock2": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.semacquire1": true, "runtime.semrelease1": true,
	"runtime.stopm": true, "runtime.startm": true, "runtime.wakep": true,
	"runtime.goschedImpl": true, "runtime.gosched_m": true, "runtime.usleep": true,
	"runtime.osyield": true, "runtime.casgstatus": true,
}

// classify folds one sample's stack, leaf first, into a bucket. GC work
// (background marking, assists, sweeping) is runtime.gc wherever it
// runs; runtime.memmove is its own bucket; a runtime leaf under a
// scheduler entry point is runtime.sched. Everything else — simulator
// code and the runtime or library helpers it calls, such as map lookups
// and allocation — goes to the layer of the innermost simulator frame,
// and to other when there is none.
func classify(stack []string) int {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" ||
			f == "runtime.bgscavenge" || f == "runtime.sweepone" {
			return bucketGC
		}
	}
	if len(stack) > 0 && stack[0] == "runtime.memmove" {
		return bucketMemmove
	}
	if len(stack) > 0 && isRuntime(stack[0]) {
		for _, f := range stack {
			if schedFrames[f] {
				return bucketSched
			}
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f, "dpml/") {
			continue
		}
		for _, lp := range layerPrefixes {
			if strings.HasPrefix(f, lp.prefix) {
				return lp.bucket
			}
		}
		return bucketOther
	}
	return bucketOther
}

func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/") ||
		strings.HasPrefix(f, "runtime/internal/")
}

// foldProfile decodes a gzipped pprof CPU profile and sums the CPU time
// of the samples labelled span=keep, and of unlabelled samples (the
// runtime's background GC workers), per bucket. It also returns how many
// samples it folded.
func foldProfile(gz []byte, keep string) ([numBuckets]time.Duration, int, error) {
	var out [numBuckets]time.Duration
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return out, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return out, 0, err
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return out, 0, errors.New("profile has no cpu sample type")
	}
	folded := 0
	var stack []string
	for _, s := range p.samples {
		if span, ok := s.labels[spanLabel]; ok && p.str(span) != keep {
			continue
		}
		if cpu >= len(s.values) {
			return out, 0, errors.New("sample without a cpu value")
		}
		stack = stack[:0]
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		out[classify(stack)] += time.Duration(s.values[cpu])
		folded++
	}
	return out, folded, nil
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []pbSample
	locations   map[uint64][]uint64 // location id → function ids, innermost inlined frame first
	functions   map[uint64]int64    // function id → string index of its name
	strings     []string
}

type pbSample struct {
	locations []uint64 // leaf first
	values    []int64
	labels    map[string]int64 // key → string index of the value
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses an uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var rawSamples [][]byte
	d := pbDecoder{b: b}
	for d.more() {
		field, wire := d.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			vt := pbDecoder{b: d.bytes()}
			for vt.more() {
				f, w := vt.key()
				if f == 1 && w == 0 {
					p.sampleTypes = append(p.sampleTypes, int64(vt.varint()))
				} else {
					vt.skip(w)
				}
			}
			if vt.err != nil {
				return nil, vt.err
			}
		case field == 2 && wire == 2: // sample, decoded once the strings are known
			rawSamples = append(rawSamples, d.bytes())
		case field == 4 && wire == 2: // location
			if err := p.decodeLocation(d.bytes()); err != nil {
				return nil, err
			}
		case field == 5 && wire == 2: // function
			fd := pbDecoder{b: d.bytes()}
			var id uint64
			var name int64
			for fd.more() {
				f, w := fd.key()
				switch {
				case f == 1 && w == 0:
					id = fd.varint()
				case f == 2 && w == 0:
					name = int64(fd.varint())
				default:
					fd.skip(w)
				}
			}
			if fd.err != nil {
				return nil, fd.err
			}
			p.functions[id] = name
		case field == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(d.bytes()))
		default:
			d.skip(wire)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	for _, raw := range rawSamples {
		s, err := p.decodeSample(raw)
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

func (p *profile) decodeLocation(b []byte) error {
	d := pbDecoder{b: b}
	var id uint64
	var fns []uint64
	for d.more() {
		f, w := d.key()
		switch {
		case f == 1 && w == 0:
			id = d.varint()
		case f == 4 && w == 2: // line
			ld := pbDecoder{b: d.bytes()}
			for ld.more() {
				lf, lw := ld.key()
				if lf == 1 && lw == 0 {
					fns = append(fns, ld.varint())
				} else {
					ld.skip(lw)
				}
			}
			if ld.err != nil {
				return ld.err
			}
		default:
			d.skip(w)
		}
	}
	p.locations[id] = fns
	return d.err
}

func (p *profile) decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	d := pbDecoder{b: b}
	for d.more() {
		f, w := d.key()
		switch {
		case f == 1:
			s.locations = d.repeated(w, s.locations)
		case f == 2:
			for _, v := range d.repeated(w, nil) {
				s.values = append(s.values, int64(v))
			}
		case f == 3 && w == 2: // label
			ld := pbDecoder{b: d.bytes()}
			var key, str int64
			for ld.more() {
				lf, lw := ld.key()
				switch {
				case lf == 1 && lw == 0:
					key = int64(ld.varint())
				case lf == 2 && lw == 0:
					str = int64(ld.varint())
				default:
					ld.skip(lw)
				}
			}
			if ld.err != nil {
				return s, ld.err
			}
			if s.labels == nil {
				s.labels = map[string]int64{}
			}
			s.labels[p.str(key)] = str
		default:
			d.skip(w)
		}
	}
	return s, d.err
}

// pbDecoder reads protobuf wire format; the first error sticks and ends
// iteration.
type pbDecoder struct {
	b   []byte
	err error
}

func (d *pbDecoder) more() bool { return d.err == nil && len(d.b) > 0 }

func (d *pbDecoder) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			break
		}
		c := d.b[0]
		d.b = d.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	d.fail("truncated varint")
	return 0
}

func (d *pbDecoder) key() (field, wire int) {
	k := d.varint()
	return int(k >> 3), int(k & 7)
}

func (d *pbDecoder) bytes() []byte {
	n := d.varint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail("truncated field")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// repeated appends a repeated varint field, packed (wire 2) or not.
func (d *pbDecoder) repeated(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, d.varint())
	case 2:
		pd := pbDecoder{b: d.bytes()}
		for pd.more() {
			dst = append(dst, pd.varint())
		}
		if pd.err != nil {
			d.fail(pd.err.Error())
		}
		return dst
	}
	d.fail(fmt.Sprintf("repeated varint with wire type %d", wire))
	return dst
}

func (d *pbDecoder) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1:
		d.advance(8)
	case 2:
		d.bytes()
	case 5:
		d.advance(4)
	default:
		d.fail(fmt.Sprintf("unsupported wire type %d", wire))
	}
}

func (d *pbDecoder) advance(n int) {
	if n > len(d.b) {
		d.fail("truncated field")
		return
	}
	d.b = d.b[n:]
}

func (d *pbDecoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New("profile: " + msg)
	}
	d.b = nil
}
