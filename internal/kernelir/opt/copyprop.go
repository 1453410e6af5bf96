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
func copyPropPass(s *scratch, body []kernelir.Instr, tree *kernelir.LoopTree, rws []Rewrite) ([]kernelir.Instr, []Rewrite) {
	k, out, vers, copies := s.k, s.next(body), s.vers, s.copies
	clear(vers)
	clear(copies)
	resolve := func(r kernelir.Reg) (int, bool) {
		i := k.RegIndex(r)
		c := copies[i]
		if c.ownVer == 0 || vers[i] != c.ownVer || vers[k.RegIndex(kernelir.Reg{File: r.File, N: c.src})] != c.srcVer {
			return r.N, false
		}
		return c.src, true
	}

	walk(tree, out, func(r kernelir.Reg) { vers[k.RegIndex(r)]++ }, func(pc int) {
		in := out[pc]
		// Substitute operands before processing the write.
		rs, n := in.Reads()
		for i, r := range rs[:n] {
			if src, ok := resolve(r); ok && src != r.N {
				rws = append(rws, Rewrite{
					Pass: "copyprop", PC: pc,
					Note: fmt.Sprintf("%s operand %c: r%d is a live copy of r%d", in.Op, "ABC"[i], r.N, src),
				})
				in.SetRead(i, src)
			}
		}
		out[pc] = in

		w, hasDst := in.Write()
		if !hasDst {
			return
		}
		// The write's new version invalidates any copy recorded for d.
		d := k.RegIndex(w)
		vers[d]++
		if (in.Op == kernelir.OpMoveI || in.Op == kernelir.OpMoveF) && in.A != in.Dst {
			src := kernelir.Reg{File: w.File, N: in.A}
			copies[d] = regCopy{src: in.A, srcVer: vers[k.RegIndex(src)], ownVer: vers[d]}
		}
	})
	return out, rws
}

// regCopy records, by a register's flat index, the move that last
// wrote it: the source register, in the same file, and both versions
// at the move. A move's write has bumped its version, so ownVer 0
// marks no move.
type regCopy struct {
	src            int
	srcVer, ownVer int
}
