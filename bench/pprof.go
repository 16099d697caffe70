package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"path"
	"strings"
)

// ledgerUnits are the units the CPU ledger charges samples to; their
// shares sum to one. runtime.malloc is an overlay on top of them.
var ledgerUnits = []string{
	"picos.gw", "picos.trs", "picos.dct", "picos.arbiter", "picos.ts", "picos.horizon", "picos.fifo", "picos.other",
	"queue", "hil", "faults", "sched", "nanos", "perfect", "taskgraph", "source", "sim", "bench",
	"runtime.gc", "runtime.other", "runtime.malloc",
}

// ledger is CPU time per unit from one profile.
type ledger struct {
	ns       map[string]int64
	total    int64 // every charged sample; runtime.malloc overlaps the rest
	samples  int
	excluded int // samples in the calibration kernel or a forced collection
}

// excludedFrames mark samples that belong to the measurement, not to the
// rounds: the calibration kernel and the caller of the per-round
// collection.
var excludedFrames = []string{"main.calibrate", "runtime.GC"}

// picosFiles maps internal/picos source files to accelerator units.
var picosFiles = map[string]string{
	"gateway.go": "gw",
	"trs.go":     "trs", "tm.go": "trs",
	"dct.go": "dct", "dm.go": "dct", "vm.go": "dct",
	"arbiter.go": "arbiter",
	"ts.go":      "ts",
	"horizon.go": "horizon",
	"fifo.go":    "fifo",
}

// gcFrames mark a sample with no repository frame as garbage-collector
// work.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc"}

// unitOf maps the innermost repository frame of a sample to its unit;
// ok is false for frames outside the repository. detrand is a helper of
// both the pattern generators and the fault injector, so it is charged
// to whichever calls it.
func unitOf(fn, file string) (unit string, ok bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	switch pkg {
	case "detrand":
		return "", false
	case "picos":
		if u, ok := picosFiles[path.Base(file)]; ok {
			return "picos." + u, true
		}
		return "picos.other", true
	case "queue", "hil", "faults", "sched", "nanos", "perfect", "taskgraph", "sim":
		return pkg, true
	case "apps", "patterns", "synth", "trace":
		return "source", true
	}
	// Packages the timed rounds never reach (fidelity, experiments)
	// would surface through sim.
	return "sim", true
}

// cpuLedger charges every sample of a gzipped pprof CPU profile to the
// innermost repository frame on its stack; samples without one go to the
// garbage collector or the rest of the runtime.
func cpuLedger(data []byte) (ledger, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return ledger{}, err
	}
	l := ledger{ns: map[string]int64{}}
	for _, s := range p.samples {
		var stack []function // innermost first
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				stack = append(stack, p.funcs[fid])
			}
		}
		if onStack(stack, excludedFrames) {
			l.excluded++
			continue
		}
		v := s.values[min(p.cpuIndex, len(s.values)-1)]
		l.total += v
		l.samples++
		unit := ""
		for _, fn := range stack {
			if u, ok := unitOf(fn.name, fn.file); ok {
				unit = u
				break
			}
		}
		switch {
		case unit != "":
		case onStack(stack, gcFrames):
			unit = "runtime.gc"
		default:
			unit = "runtime.other"
		}
		l.ns[unit] += v
		if onStack(stack, []string{"runtime.mallocgc"}) {
			l.ns["runtime.malloc"] += v
		}
	}
	return l, nil
}

// onStack reports whether any frame is one of names.
func onStack(stack []function, names []string) bool {
	for _, fn := range stack {
		for _, n := range names {
			if fn.name == n {
				return true
			}
		}
	}
	return false
}

// profile is the part of profile.proto the ledger reads.
type profile struct {
	cpuIndex int
	samples  []sample
	locs     map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]function
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

type function struct{ name, file string }

// decodeProfile reads a gzipped profile.proto message: sample types,
// samples, locations, functions and the string table.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	var strs []string
	var sampleTypes []uint64 // string index of each sample type's name
	type rawFunc struct{ id, name, file uint64 }
	var funcs []rawFunc
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			if len(s.values) == 0 {
				return fmt.Errorf("cpu profile: sample without values")
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5: // function
			var f rawFunc
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			funcs = append(funcs, f)
			return err
		case 6: // string_table
			strs = append(strs, string(b))
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
	for _, f := range funcs {
		p.funcs[f.id] = function{str(f.name), str(f.file)}
	}
	p.cpuIndex = len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			p.cpuIndex = i
		}
	}
	return p, nil
}

// fields walks the fields of one protobuf message. fn gets the field
// number and either the scalar value or the length-delimited bytes.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad field key")
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("cpu profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("cpu profile: short fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("cpu profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("cpu profile: short fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated integer field, packed (b set) or not.
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
