package vm

import "instrsample/internal/ir"

// Pure blocks are the unit of the fast path's block-granular cost
// accounting. A pure block whose operands fit the fused encoding runs on
// the fused tier (fuse.go), which charges the whole block's cycle cost
// and instruction count at the terminator instead of per instruction;
// the block's prefix sums reconstruct the exact per-instruction counters
// at every early exit (trap, cancellation, quantum-expired yieldpoint),
// so nothing observable changes. Every other block runs on the generic
// path (interp.go).

// validGIDs sizes the GID-indexed side table for the program and
// reports whether its GIDs can be trusted. A program mutated after its
// last Seal can carry stale or colliding GIDs. The table must never
// charge one block with another block's costs, so GIDs are validated
// first (in-range and collision-free); on any violation no block may be
// batched, which keeps the whole run on the always-correct
// per-instruction path.
func validGIDs(prog *ir.Program) (size int, valid bool) {
	size, valid = prog.NumBlocks(), true
	for _, m := range prog.Methods() {
		for _, b := range m.Blocks {
			if b.GID < 0 {
				valid = false
			} else if b.GID >= size {
				valid = false
				size = b.GID + 1
			}
		}
	}
	if !valid {
		return size, false
	}
	seen := make([]bool, size)
	for _, m := range prog.Methods() {
		for _, b := range m.Blocks {
			if seen[b.GID] {
				return size, false
			}
			seen[b.GID] = true
		}
	}
	return size, true
}

// pureBlock reports whether every instruction in b can run on the fused
// tier: plain computation plus yieldpoints, ending in a jump or branch.
// Anything that can switch frames, poll the sample trigger, or run a
// probe disqualifies the block.
func pureBlock(b *ir.Block) bool {
	n := len(b.Instrs)
	if n == 0 {
		return false
	}
	for i := 0; i < n; i++ {
		switch b.Instrs[i].Op {
		case ir.OpJump, ir.OpBranch:
			if i != n-1 {
				return false
			}
		case ir.OpNop, ir.OpConst, ir.OpMove,
			ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpNeg, ir.OpNot,
			ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE,
			ir.OpClassOf, ir.OpNew, ir.OpGetField, ir.OpPutField,
			ir.OpNewArray, ir.OpArrayLoad, ir.OpArrayStore, ir.OpArrayLen,
			ir.OpIO, ir.OpPrint, ir.OpYield:
		default:
			return false
		}
	}
	op := b.Instrs[n-1].Op
	return op == ir.OpJump || op == ir.OpBranch
}

// pureTrap is the cold trap exit of the fused tier: it reconstructs the
// exact per-instruction counters for the partially executed block
// (charge-before-execute: prefix[pc+1] covers every instruction up to
// and including the faulting one), flushes everything the generic path
// keeps current, and builds the trap.
func (v *VM) pureTrap(t *Thread, f *Frame, pc int, prefix []uint64, cycles, icount uint64, quantum int, reason string) (uint64, uint64, bool, error) {
	cycles += prefix[pc+1]
	icount += uint64(pc) + 1
	v.quantum = quantum
	f.PC = pc
	v.cycles, v.stats.Instrs = cycles, icount
	return cycles, icount, false, v.trap(t, reason)
}
