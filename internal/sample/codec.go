package sample

// Plan serialization. A Plan carries full architectural checkpoints —
// register files and sparse memory images — so its JSON form needs a
// compact encoding: registers serialize as one little-endian byte blob
// with the zero tail trimmed, and memory images as the sparse page list
// mem.Memory.Export produces (sorted, trailing zeros trimmed, base64 in
// JSON). The encoding is canonical: the same plan always marshals to
// identical bytes, so content-addressed stores shared by concurrent
// writers see idempotent rewrites.
//
// The codec is versioned independently of any store envelope: a plan
// written by a build with different window-scheduling or checkpoint
// semantics must read as "no plan" (a cache miss that triggers a
// rebuild), never as a subtly wrong schedule. UnmarshalJSON therefore
// rejects any codec version other than PlanCodecVersion; bump it when
// PlanWindow, Checkpoint serialization, or BuildPlan's schedule
// semantics change incompatibly.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// PlanCodecVersion is the plan serialization version this build reads
// and writes. A serialized plan carrying any other version fails to
// unmarshal — callers layering plans under a cache treat that as a miss
// and rebuild.
const PlanCodecVersion = 1

// planJSON is the serialized envelope of a Plan.
type planJSON struct {
	Codec      int              `json:"codec"`
	Program    string           `json:"program"`
	TotalInsts uint64           `json:"total_insts"`
	Period     uint64           `json:"period"`
	Windows    []planWindowJSON `json:"windows,omitempty"`
}

type planWindowJSON struct {
	Index    int             `json:"index"`
	Start    uint64          `json:"start"`
	WarmFrom uint64          `json:"warm_from"`
	Ck       *checkpointJSON `json:"ck,omitempty"`
}

// checkpointJSON is the compact form of an emu.Checkpoint: registers as
// a trimmed little-endian byte blob, memory as a sparse page list.
type checkpointJSON struct {
	Program   string     `json:"program"`
	PC        uint64     `json:"pc"`
	InstCount uint64     `json:"inst_count"`
	Halted    bool       `json:"halted,omitempty"`
	Regs      []byte     `json:"regs,omitempty"`
	Mem       []mem.Page `json:"mem,omitempty"`
}

// encodeRegs packs the register file little-endian and trims the zero
// tail (registers above the last live one serialize to nothing).
func encodeRegs(regs *[isa.NumRegs]uint64) []byte {
	buf := make([]byte, 8*len(regs))
	for i, r := range regs {
		binary.LittleEndian.PutUint64(buf[8*i:], r)
	}
	n := len(buf)
	for n > 0 && buf[n-1] == 0 {
		n--
	}
	return buf[:n]
}

// decodeRegs is encodeRegs' inverse; a blob longer than the register
// file cannot have come from this codec.
func decodeRegs(b []byte) ([isa.NumRegs]uint64, error) {
	var regs [isa.NumRegs]uint64
	if len(b) > 8*len(regs) {
		return regs, fmt.Errorf("sample: checkpoint carries %d register bytes, machine has %d registers", len(b), len(regs))
	}
	var buf [8 * len(regs)]byte
	copy(buf[:], b)
	for i := range regs {
		regs[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return regs, nil
}

// MarshalJSON encodes the plan under the versioned compact codec.
func (p *Plan) MarshalJSON() ([]byte, error) {
	out := planJSON{
		Codec:      PlanCodecVersion,
		Program:    p.Program,
		TotalInsts: p.TotalInsts,
		Period:     p.Period,
	}
	for _, w := range p.Windows {
		jw := planWindowJSON{Index: w.Index, Start: w.Start, WarmFrom: w.WarmFrom}
		if w.Ck != nil {
			jw.Ck = &checkpointJSON{
				Program:   w.Ck.Program,
				PC:        w.Ck.PC,
				InstCount: w.Ck.InstCount,
				Halted:    w.Ck.Halted,
				Regs:      encodeRegs(&w.Ck.Regs),
			}
			if w.Ck.Mem != nil {
				jw.Ck.Mem = w.Ck.Mem.Export()
			}
		}
		out.Windows = append(out.Windows, jw)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a plan, rejecting any codec version other than
// PlanCodecVersion and any checkpoint whose memory image is torn (bad
// page alignment, oversized or duplicate pages) — the failure modes a
// partially written or hand-edited plan file produces. Callers layering
// plans under a cache treat every decode error as a miss and rebuild.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var in planJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Codec != PlanCodecVersion {
		return fmt.Errorf("sample: plan codec version %d, this build reads %d", in.Codec, PlanCodecVersion)
	}
	out := Plan{
		Program:    in.Program,
		TotalInsts: in.TotalInsts,
		Period:     in.Period,
		warm:       newWarmMemo(),
	}
	// Each window's image is decoded over its predecessor's, so the
	// pages consecutive checkpoints have in common stay shared, as they
	// were in the plan that was encoded.
	var prev *mem.Memory
	for i, jw := range in.Windows {
		w := PlanWindow{Index: jw.Index, Start: jw.Start, WarmFrom: jw.WarmFrom}
		if jw.Ck != nil {
			regs, err := decodeRegs(jw.Ck.Regs)
			if err != nil {
				return fmt.Errorf("sample: plan window %d: %w", i, err)
			}
			m, err := mem.FromPagesOver(jw.Ck.Mem, prev)
			if err != nil {
				return fmt.Errorf("sample: plan window %d: %w", i, err)
			}
			prev = m
			w.Ck = &emu.Checkpoint{
				Program:   jw.Ck.Program,
				PC:        jw.Ck.PC,
				InstCount: jw.Ck.InstCount,
				Halted:    jw.Ck.Halted,
				Regs:      regs,
				Mem:       m,
			}
		}
		out.Windows = append(out.Windows, w)
	}
	*p = out
	return nil
}
