package emu

import (
	"context"
	"fmt"
	"unsafe"
)

// Trace is an immutable recording of a program's dynamic instruction
// stream: every DynInst the oracle produced, in execution order, ending
// with the HALT record. A Trace decouples architectural execution from
// timing — record the stream once, then time it under any number of
// machine configurations by replaying the buffer through
// pipeline.NewReplay, which is byte-for-byte timing-identical to
// fetching from a live emulator (the timing model consumes nothing but
// the DynInst stream). The experiment engine no longer records traces
// (its exact cells run live); Record and Trace remain for the perfbench
// module, whose traced sweep-exact pass times them.
//
// A Trace is safe for concurrent use: the buffer is append-only during
// Record and read-only afterwards, each replayer owns its own
// TraceReader cursor, and the Inst pointers reference the recorded
// program's static Code slice, which is never mutated.
type Trace struct {
	// Program is the name of the program the stream was recorded from;
	// replay sessions reject a trace of a different program.
	Program string
	// Insts is the recorded stream. Treat as read-only.
	Insts []DynInst
}

// DynInstBytes is the in-memory footprint of one trace record: a trace
// of n instructions holds about n × DynInstBytes bytes.
const DynInstBytes = uint64(unsafe.Sizeof(DynInst{}))

// Len returns the number of recorded dynamic instructions (the
// program's exact instruction count when recording ran to HALT).
func (t *Trace) Len() int { return len(t.Insts) }

// Bytes returns the approximate resident size of the trace buffer —
// what a trace-cache memory budget accounts.
func (t *Trace) Bytes() uint64 { return uint64(len(t.Insts)) * DynInstBytes }

// NewReader returns a fresh replay cursor positioned at the start of
// the stream. Any number of readers may replay one trace concurrently.
func (t *Trace) NewReader() *TraceReader {
	return &TraceReader{insts: t.Insts}
}

// TraceReader replays a recorded stream through the same StepInto
// contract as a live Machine: each call copies the next record into the
// caller's buffer, and false means the stream is exhausted (the record
// before carried Halt, exactly like a halted machine). A reader is
// single-goroutine; share the Trace, not the reader.
type TraceReader struct {
	insts []DynInst
	pos   int
}

// StepInto copies the next recorded instruction into d and reports
// whether one was available. It allocates nothing.
func (r *TraceReader) StepInto(d *DynInst) bool {
	if r.pos >= len(r.insts) {
		return false
	}
	*d = r.insts[r.pos]
	r.pos++
	return true
}

// recordChunk bounds instructions between context checks while
// recording.
const recordChunk = 1 << 16

// Record executes p architecturally from its entry point to HALT,
// capturing every dynamic instruction into a Trace. maxInsts caps the
// recording (0 = unlimited): a program still running past the cap
// returns an error rather than an unbounded buffer, so a caller with a
// memory budget cannot be blown through by a runaway workload.
// Canceling ctx aborts with an error wrapping ctx.Err().
func Record(ctx context.Context, p *Program, maxInsts uint64) (*Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := New(p)
	t := &Trace{Program: p.Name}
	for !m.halt {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("emu: recording %q canceled at instruction %d: %w", p.Name, len(t.Insts), err)
		}
		if maxInsts > 0 && uint64(len(t.Insts)) >= maxInsts {
			return nil, fmt.Errorf("emu: recording %q exceeded %d instructions", p.Name, maxInsts)
		}
		n := uint64(recordChunk)
		if maxInsts > 0 {
			if left := maxInsts - uint64(len(t.Insts)); left < n {
				n = left
			}
		}
		for i := uint64(0); i < n && !m.halt; i++ {
			t.Insts = append(t.Insts, DynInst{})
			m.exec(1, &t.Insts[len(t.Insts)-1], nil)
		}
	}
	return t, nil
}
