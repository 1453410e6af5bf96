package opt

import (
	"fmt"

	"synergy/internal/kernelir"
)

// Copy propagation: a read of r, where r was last written by a move
// from s and neither r nor s has been written since, may read s
// directly. Moves are bit copies in both register files, so the
// substitution is bit-exact; it is what turns CSE's moves (and the
// builder's CopyI/CopyF staging moves) into dead code for DCE.
//
// This is the one pass allowed to rewrite memory-operation operands
// (index and stored-value registers): the substituted register provably
// holds identical bits, so the access itself is unchanged. The per-pass
// checker still pins the op/buffer/immediate/loop-path sequence and
// requires every operand change to be logged.
//
// Versioning is the CSE scheme: every write bumps the destination's
// version; a recorded copy is valid only while both r and s still have
// the versions they had at the move. Repeat entry bumps everything the
// subtree writes, which invalidates loop-carried copies for the walk of
// the body.
func copyPropPass(k *kernelir.Kernel, body []kernelir.Instr) ([]kernelir.Instr, []Rewrite) {
	out := append([]kernelir.Instr(nil), body...)
	var rws []Rewrite
	vers := make([]int, k.NumRegs())

	// copies maps a register's flat index to the move that last wrote
	// it: the source register, in the same file, and both versions at
	// the move.
	type cp struct {
		src            int
		srcVer, ownVer int
	}
	copies := make(map[int]cp)
	resolve := func(r kernelir.Reg) (int, bool) {
		i := k.RegIndex(r)
		c, ok := copies[i]
		if !ok || vers[i] != c.ownVer || vers[k.RegIndex(kernelir.Reg{File: r.File, N: c.src})] != c.srcVer {
			return r.N, false
		}
		return c.src, true
	}

	walk(out, func(r kernelir.Reg) { vers[k.RegIndex(r)]++ }, func(pc int) {
		in := out[pc]
		// Substitute operands before processing the write.
		rs, n := in.Reads()
		for i, r := range rs[:n] {
			if s, ok := resolve(r); ok && s != r.N {
				rws = append(rws, Rewrite{
					Pass: "copyprop", PC: pc,
					Note: fmt.Sprintf("%s operand %s: r%d is a live copy of r%d", in.Op, "ABC"[i:i+1], r.N, s),
				})
				in.SetRead(i, s)
			}
		}
		out[pc] = in

		w, hasDst := in.Write()
		if !hasDst {
			return
		}
		d := k.RegIndex(w)
		vers[d]++
		delete(copies, d)
		if (in.Op == kernelir.OpMoveI || in.Op == kernelir.OpMoveF) && in.A != in.Dst {
			src := kernelir.Reg{File: w.File, N: in.A}
			copies[d] = cp{src: in.A, srcVer: vers[k.RegIndex(src)], ownVer: vers[d]}
		}
	})
	if len(rws) == 0 {
		return nil, nil
	}
	return out, rws
}
