package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"repro/internal/isa"
)

// Fingerprint is a canonical SHA-256 of everything a program says: the
// entry name, each function's name, library flag and blocks (label and
// every isa.Instr field), and each global's name, size, initial bytes and
// read-only flag, all in declaration order. Block.Func and Block.Index
// are derived from that order and left out. Two programs with the same
// fingerprint are the same input to every later stage, however they were
// produced — which is what lets core.Store keep one session for O2 and Os
// builds that compile to identical code.
func (p *Program) Fingerprint() [sha256.Size]byte {
	w := fpWriter{h: sha256.New()}
	w.str(p.Entry)
	w.int(len(p.Funcs))
	for _, f := range p.Funcs {
		w.str(f.Name)
		w.bool(f.Library)
		w.int(len(f.Blocks))
		for _, b := range f.Blocks {
			w.str(b.Label)
			w.int(len(b.Instrs))
			for i := range b.Instrs {
				w.instr(&b.Instrs[i])
			}
		}
	}
	w.int(len(p.Globals))
	for _, g := range p.Globals {
		w.str(g.Name)
		w.int(g.Size)
		w.bytes(g.Init)
		w.bool(g.RO)
	}
	var sum [sha256.Size]byte
	w.h.Sum(sum[:0])
	return sum
}

// fpWriter feeds length-prefixed, fixed-width fields into a hash, so no
// two different field sequences share an encoding.
type fpWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *fpWriter) int(v int) { w.u64(uint64(v)) }

func (w *fpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *fpWriter) bool(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fpWriter) bytes(b []byte) {
	w.int(len(b))
	w.h.Write(b)
}

func (w *fpWriter) str(s string) { w.bytes([]byte(s)) }

func (w *fpWriter) instr(in *isa.Instr) {
	w.u64(uint64(in.Op))
	w.u64(uint64(in.Cond))
	w.u64(uint64(in.Rd))
	w.u64(uint64(in.Rn))
	w.u64(uint64(in.Rm))
	w.u64(uint64(uint32(in.Imm)))
	w.bool(in.HasImm)
	w.str(in.Sym)
	w.u64(uint64(in.Mode))
	w.u64(uint64(in.Shift))
	w.u64(uint64(in.RegList))
	w.str(in.ITMask)
	w.bool(in.SetFlags)
}
