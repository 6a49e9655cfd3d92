// Package trace records and replays instruction streams. A trace captures
// the exact sequence a workload generator produced — compute batches,
// loads, stores, addresses, object identities, dependence flags — in a
// compact varint-encoded binary format, so a run can be archived, shared,
// and replayed bit-identically, or produced by an external tool instead of
// the built-in generators.
//
// Addresses in a trace are virtual and carry the heap-partition layout of
// the run that produced them (see internal/heap): replaying under a
// MOCA-policy system requires the trace to have been recorded from an
// application instrumented with the same classification, because the
// partition an address lives in is what tells the OS the object's class.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"moca/internal/cpu"
)

// Magic identifies a trace file; the byte after it is the format version.
// Version 1 is a single delta/varint stream, readable through Open only;
// version 2 is the block format every writer produces (block.go).
const (
	Magic    = "MOCATRC1"
	version1 = 1
)

// opcodes
const (
	opCompute = 0
	opLoad    = 1
	opLoadDep = 2
	opStore   = 3
	opEnd     = 255 // v1 only: terminates the stream
)

// Record drains up to n instructions from a stream into the writer.
// It returns the number recorded (less than n if the stream ended).
func Record(w *BlockWriter, s cpu.Stream, n uint64) (uint64, error) {
	var recorded uint64
	for recorded < n {
		in, ok := s.Next()
		if !ok {
			break
		}
		if err := w.Append(in); err != nil {
			return recorded, err
		}
		recorded++
	}
	return recorded, nil
}

// Reader replays a v1 trace as a cpu.Stream. Open returns one for a v1
// file, positioned after the header.
type Reader struct {
	r    *bufio.Reader
	done bool
	err  error

	lastAddr uint64
	lastObj  uint64
}

// Err returns the decode error that terminated the stream, if any.
func (t *Reader) Err() error { return t.err }

// Next implements cpu.Stream.
func (t *Reader) Next() (cpu.Instr, bool) {
	if t.done {
		return cpu.Instr{}, false
	}
	fail := func(err error) (cpu.Instr, bool) {
		t.done = true
		if err != io.EOF {
			t.err = err
		}
		return cpu.Instr{}, false
	}
	op, err := t.r.ReadByte()
	if err != nil {
		return fail(err)
	}
	switch op {
	case opEnd:
		t.done = true
		return cpu.Instr{}, false
	case opCompute:
		n, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fail(err)
		}
		// Harden against hand-crafted traces: batches are at least one
		// instruction and bounded so int conversion cannot overflow.
		if n < 1 {
			n = 1
		}
		if n > 1<<30 {
			return fail(fmt.Errorf("trace: absurd compute batch of %d", n))
		}
		return cpu.Instr{Kind: cpu.Compute, N: int32(n)}, true
	case opLoad, opLoadDep, opStore:
		dAddr, err := binary.ReadVarint(t.r)
		if err != nil {
			return fail(err)
		}
		dObj, err := binary.ReadVarint(t.r)
		if err != nil {
			return fail(err)
		}
		t.lastAddr = uint64(int64(t.lastAddr) + dAddr)
		t.lastObj = uint64(int64(t.lastObj) + dObj)
		in := cpu.Instr{VAddr: t.lastAddr, Obj: t.lastObj}
		switch op {
		case opLoad:
			in.Kind = cpu.Load
		case opLoadDep:
			in.Kind = cpu.Load
			in.DependsOnPrev = true
		case opStore:
			in.Kind = cpu.Store
		}
		return in, true
	default:
		return fail(fmt.Errorf("trace: unknown opcode %d", op))
	}
}

var _ cpu.Stream = (*Reader)(nil)

// Loop wraps a finite stream source so it restarts from a factory when
// exhausted — letting a finite trace drive an arbitrarily long simulation.
// A stream that ends with a decode error (rather than clean end-of-trace)
// terminates the loop: restarting would replay the valid prefix forever.
// Check Err after the simulation to distinguish the two.
type Loop struct {
	open func() (cpu.Stream, error)
	cur  cpu.Stream
	err  error
}

// NewLoop builds a looping stream; open is called for each pass.
func NewLoop(open func() (cpu.Stream, error)) *Loop {
	return &Loop{open: open}
}

// Err returns the error that terminated the loop: a failed reopen, or the
// inner stream's decode error (any stream exposing Err() error, such as
// Reader). Nil while the loop is still live.
func (l *Loop) Err() error { return l.err }

// Next implements cpu.Stream.
func (l *Loop) Next() (cpu.Instr, bool) {
	if l.err != nil {
		return cpu.Instr{}, false
	}
	for attempt := 0; attempt < 2; attempt++ {
		if l.cur == nil {
			s, err := l.open()
			if err != nil {
				l.err = fmt.Errorf("trace: reopening stream: %w", err)
				return cpu.Instr{}, false
			}
			if s == nil {
				return cpu.Instr{}, false
			}
			l.cur = s
		}
		if in, ok := l.cur.Next(); ok {
			return in, true
		}
		// The pass ended. A decode error is terminal — only a clean
		// end-of-stream may restart.
		if ec, ok := l.cur.(interface{ Err() error }); ok {
			if err := ec.Err(); err != nil {
				l.err = err
				l.cur = nil
				return cpu.Instr{}, false
			}
		}
		l.cur = nil
	}
	return cpu.Instr{}, false
}

// Refill implements cpu.BatchStream across pass boundaries: it drains
// Next into dst, so a looping block replay still batch-refills the core.
func (l *Loop) Refill(dst []cpu.Instr) int {
	n := 0
	for n < len(dst) {
		in, ok := l.Next()
		if !ok {
			break
		}
		dst[n] = in
		n++
	}
	return n
}

var _ cpu.Stream = (*Loop)(nil)
var _ cpu.BatchStream = (*Loop)(nil)
