package vm_test

// Fusion edge-case tests: the superinstruction tier's correctness
// contract (DESIGN.md §12) says a fused run is observationally identical
// to the reference dispatcher even when execution stops *inside* a
// superinstruction — a trap in the first or second sub-op, a
// cancellation or quantum expiry at a fused-in yieldpoint — and that an
// installed observer degrades gracefully by disabling fusion outright.
// Each test here pins one of those seams with a hand-built program whose
// fused encoding is known, then requires bit-identical results across
// the three dispatch paths: fused, generic (the fast dispatcher with a
// no-op observer, which keeps every block off the fused tier) and
// reference.

import (
	"fmt"
	"strings"
	"testing"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// tripleRun executes prog under the fused fast path, the generic fast
// path and the reference dispatcher, with base applied to all three, and
// returns the VMs, results and errors in that order.
func tripleRun(t *testing.T, prog func() *ir.Program, base vm.Config) ([3]*vm.VM, [3]*vm.Result, [3]error) {
	t.Helper()
	var ms [3]*vm.VM
	var rs [3]*vm.Result
	var errs [3]error
	for i, mod := range []func(*vm.Config){
		func(*vm.Config) {},
		func(c *vm.Config) { c.Observer = noopObserver{} },
		func(c *vm.Config) { c.Reference = true },
	} {
		cfg := base
		mod(&cfg)
		ms[i] = vm.New(prog(), cfg)
		rs[i], errs[i] = ms[i].Run()
	}
	return ms, rs, errs
}

// requireIdenticalStop asserts all three runs trapped with the same
// message and left identical Stats.
func requireIdenticalStop(t *testing.T, ms [3]*vm.VM, errs [3]error, want string) {
	t.Helper()
	names := [3]string{"fused", "generic", "reference"}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("%s: run completed, want error containing %q", names[i], want)
		}
	}
	if errs[0].Error() != errs[1].Error() || errs[1].Error() != errs[2].Error() {
		t.Fatalf("errors differ:\n  fused:     %v\n  generic:   %v\n  reference: %v", errs[0], errs[1], errs[2])
	}
	if ms[0].Stats() != ms[1].Stats() || ms[1].Stats() != ms[2].Stats() {
		t.Fatalf("stats diverge:\n  fused:     %+v\n  generic:   %+v\n  reference: %+v",
			ms[0].Stats(), ms[1].Stats(), ms[2].Stats())
	}
}

// TestFusedTrapInsidePair traps in each sub-op position of a memory
// superinstruction and requires the original pc, trap message and
// partial counters to be reconstructed exactly.
func TestFusedTrapInsidePair(t *testing.T) {
	cl := &ir.Class{Name: "C", FieldNames: []string{"f"}}
	// getfield on a null register followed by a const: fuses to
	// getfield+const, traps in the FIRST sub-op.
	first := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpGetField, Dst: 1, A: 2, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 3, Imm: 5})
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
		fb.At(done).Return(3)
		p := &ir.Program{Name: "trap1", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	// new + putfield (valid) + getfield on null: the (putfield,getfield)
	// pair fuses and the trap fires in the SECOND sub-op, one past the
	// superinstruction's recorded pc.
	second := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpNew, Dst: 1, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpPutField, A: 0, B: 1, Class: cl})
		entry.Append(ir.Instr{Op: ir.OpGetField, Dst: 2, A: 3, Class: cl})
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
		fb.At(done).Return(2)
		p := &ir.Program{Name: "trap2", Classes: []*ir.Class{cl}, Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	cases := []struct {
		name string
		prog func() *ir.Program
		kind string
		want string
	}{
		{"first-sub-op", first, "getfield+const", "getfield on null"},
		{"second-sub-op", second, "putfield+getfield", "getfield on null"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, _, errs := tripleRun(t, tc.prog, vm.Config{MaxCycles: 1 << 20})
			requireIdenticalStop(t, ms, errs, tc.want)
			fs := ms[0].FusionStats()
			if fs.ByKind[tc.kind] == 0 {
				t.Fatalf("superinstruction %q never entered; fusion stats: %+v", tc.kind, fs)
			}
		})
	}
}

// latchLoop builds: entry(const,const,jmp) -> L(add,yield,jmp) ->
// M(cmplt,branch[L,done]) -> done(return). L fuses to the
// add+yield+jmp triple and M to cmplt+br, so every yieldpoint the
// program executes sits inside a superinstruction.
func latchLoop(iters int64) func() *ir.Program {
	return func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = 8
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 1})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 2, Imm: iters})
		loop := fb.Block("L")
		mid := fb.Block("M")
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{loop}})
		loop.Append(ir.Instr{Op: ir.OpAdd, Dst: 0, A: 0, B: 1})
		loop.Append(ir.Instr{Op: ir.OpYield})
		loop.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{mid}})
		mid.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 0, B: 2})
		mid.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{loop, done}})
		fb.At(done).Return(0)
		p := &ir.Program{Name: "latch", Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
}

// TestFusedCancelMidSuperinstruction pre-fires a cancel token so the
// stop lands on the yieldpoint buried inside the add+yield+jmp triple:
// the fused path must reconstruct the same resume pc and flushed
// counters as both the generic path and the reference dispatcher.
func TestFusedCancelMidSuperinstruction(t *testing.T) {
	prog := latchLoop(1 << 40) // effectively unbounded without cancel
	var ms [3]*vm.VM
	var errs [3]error
	for i, mod := range []func(*vm.Config){
		func(*vm.Config) {},
		func(c *vm.Config) { c.Observer = noopObserver{} },
		func(c *vm.Config) { c.Reference = true },
	} {
		tok := vm.NewCancel()
		tok.Fire()
		cfg := vm.Config{MaxCycles: 1 << 20, Cancel: tok}
		mod(&cfg)
		ms[i] = vm.New(prog(), cfg)
		_, errs[i] = ms[i].Run()
	}
	requireIdenticalStop(t, ms, errs, "cancelled")
	for i, err := range errs {
		if !vm.IsCancelled(err) {
			t.Fatalf("config %d: got %v, want CancelError", i, err)
		}
	}
	if fs := ms[0].FusionStats(); fs.ByKind["add+yield+jmp"] == 0 {
		t.Fatalf("cancel did not land in the fused latch; fusion stats: %+v", fs)
	}
}

// TestFusedQuantumRotation drives the same latch loop to completion
// under small quanta, so the scheduler's quantum-expiry path repeatedly
// suspends execution at the yieldpoint inside the fused triple and
// resumes mid-block through the generic loop. All three configurations
// must agree on the full Result.
func TestFusedQuantumRotation(t *testing.T) {
	const iters = 40
	for _, q := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("quantum=%d", q), func(t *testing.T) {
			ms, rs, errs := tripleRun(t, latchLoop(iters), vm.Config{MaxCycles: 1 << 20, Quantum: q})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("config %d: %v", i, err)
				}
			}
			for i := 1; i < 3; i++ {
				if rs[i].Return != rs[0].Return {
					t.Errorf("config %d: return %d, want %d", i, rs[i].Return, rs[0].Return)
				}
			}
			if ms[0].Stats() != ms[1].Stats() || ms[1].Stats() != ms[2].Stats() {
				t.Fatalf("stats diverge:\n  fused:     %+v\n  generic:   %+v\n  reference: %+v",
					ms[0].Stats(), ms[1].Stats(), ms[2].Stats())
			}
			if fs := ms[0].FusionStats(); fs.ByKind["add+yield+jmp"] < iters {
				t.Errorf("latch entered %d times fused, want >= %d", fs.ByKind["add+yield+jmp"], iters)
			}
		})
	}
}

// TestFusedOverflowFallsBackToGeneric runs programs with a pure block
// whose register operand does not fit the fused encoding's int16 slots.
// That block must stay unfused and run on the generic path, while its
// fused neighbours keep the fused tier, and the whole run — completed
// or trapped — must match the generic and reference paths bit for bit.
func TestFusedOverflowFallsBackToGeneric(t *testing.T) {
	const big = 40000 // > 0x7FFF
	const iters = 50
	// entry(const,const,jmp) -> L(add big,move,yield,jmp) ->
	// M(cmplt,branch[L,done]) -> done(return big): entry and M fuse, L
	// overflows.
	loop := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = big + 1
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 1})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 2, Imm: iters})
		l := fb.Block("L")
		m := fb.Block("M")
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{l}})
		l.Append(ir.Instr{Op: ir.OpAdd, Dst: big, A: big, B: 1})
		l.Append(ir.Instr{Op: ir.OpMove, Dst: 4, A: big})
		l.Append(ir.Instr{Op: ir.OpYield})
		l.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{m}})
		m.Append(ir.Instr{Op: ir.OpCmpLT, Dst: 3, A: 4, B: 2})
		m.Append(ir.Instr{Op: ir.OpBranch, A: 3, Targets: []*ir.Block{l, done}})
		fb.At(done).Return(big)
		p := &ir.Program{Name: "overflow-loop", Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}
	// A single pure block that divides by an overflow register holding
	// zero: the trap must come from the generic path.
	trap := func() *ir.Program {
		fb := ir.NewFunc("main", 0)
		fb.M.NumRegs = big + 1
		entry := fb.EntryBlock()
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: big, Imm: 0})
		entry.Append(ir.Instr{Op: ir.OpConst, Dst: 1, Imm: 7})
		entry.Append(ir.Instr{Op: ir.OpDiv, Dst: 2, A: 1, B: big})
		done := fb.Block("done")
		entry.Append(ir.Instr{Op: ir.OpJump, Targets: []*ir.Block{done}})
		fb.At(done).Return(2)
		p := &ir.Program{Name: "overflow-trap", Funcs: []*ir.Method{fb.M}, Main: fb.M}
		p.Seal()
		return p
	}

	t.Run("loop", func(t *testing.T) {
		ms, rs, errs := tripleRun(t, loop, vm.Config{MaxCycles: 1 << 20, Quantum: 3})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("config %d: %v", i, err)
			}
		}
		for i := 1; i < 3; i++ {
			if rs[i].Return != rs[0].Return || rs[i].Stats != rs[0].Stats {
				t.Fatalf("config %d diverges from fused:\n  fused: ret=%d %+v\n  other: ret=%d %+v",
					i, rs[0].Return, rs[0].Stats, rs[i].Return, rs[i].Stats)
			}
		}
		if rs[0].Return != iters {
			t.Fatalf("return %d, want %d", rs[0].Return, iters)
		}
		// Only entry (3 instructions, once) and M (2 per iteration) run
		// fused; L's 4 per iteration and the return run generic.
		fs := ms[0].FusionStats()
		if fs.FusedBlocks != 2 {
			t.Errorf("FusedBlocks = %d, want 2 (entry and M; L overflows)", fs.FusedBlocks)
		}
		if want := uint64(3 + 2*iters); fs.Instrs != want {
			t.Errorf("fused tier ran %d instructions, want %d", fs.Instrs, want)
		}
		if total := rs[0].Stats.Instrs; total != uint64(3+6*iters+1) {
			t.Errorf("run executed %d instructions, want %d", total, 3+6*iters+1)
		}
	})
	t.Run("trap", func(t *testing.T) {
		ms, _, errs := tripleRun(t, trap, vm.Config{MaxCycles: 1 << 20})
		requireIdenticalStop(t, ms, errs, "division by zero")
		if !strings.Contains(errs[0].Error(), "division by zero") {
			t.Fatalf("trap %q, want division by zero", errs[0])
		}
		if fs := ms[0].FusionStats(); fs.FusedBlocks != 0 || fs.Instrs != 0 {
			t.Errorf("overflow block fused anyway: %+v", fs)
		}
	})
}

// noopObserver is the cheapest possible observer: its mere installation
// must disable fusion (graceful degradation) without changing results,
// which makes it the way tests select the generic path.
type noopObserver struct{}

func (noopObserver) OnEnter(*vm.Thread, *vm.Frame)                    {}
func (noopObserver) OnExit(*vm.Thread, *vm.Frame)                     {}
func (noopObserver) OnTransfer(*vm.Thread, *vm.Frame, *ir.Instr, int) {}
func (noopObserver) OnCheck(*vm.Thread, *vm.Frame, *ir.Instr, bool)   {}
func (noopObserver) OnProbe(*vm.Thread, *vm.Frame, *ir.Probe)         {}
func (noopObserver) OnYield(*vm.Thread, *vm.Frame)                    {}

// TestObserverDisablesFusion pins the degradation choice documented in
// DESIGN.md §12: a run with an observer installed runs zero fused
// blocks, and the observed run's results still match the fused run.
func TestObserverDisablesFusion(t *testing.T) {
	prog := latchLoop(100)
	plain := vm.New(prog(), vm.Config{MaxCycles: 1 << 20})
	pres, perr := plain.Run()
	if perr != nil {
		t.Fatalf("plain run: %v", perr)
	}
	if fs := plain.FusionStats(); fs.FusedBlocks == 0 || fs.Instrs == 0 {
		t.Fatalf("control run did not fuse: %+v", fs)
	}
	obs := vm.New(prog(), vm.Config{MaxCycles: 1 << 20, Observer: noopObserver{}})
	ores, oerr := obs.Run()
	if oerr != nil {
		t.Fatalf("observed run: %v", oerr)
	}
	if fs := obs.FusionStats(); fs.FusedBlocks != 0 || fs.Supers != 0 || fs.Covered != 0 ||
		fs.BlockRuns != 0 || fs.Dispatches != 0 || fs.Instrs != 0 || fs.Fused != 0 || len(fs.ByKind) != 0 {
		t.Fatalf("observer did not disable fusion: %+v", fs)
	}
	if ores.Return != pres.Return || obs.Stats() != plain.Stats() {
		t.Fatalf("observed run diverged:\n  fused:    ret=%d %+v\n  observed: ret=%d %+v",
			pres.Return, plain.Stats(), ores.Return, obs.Stats())
	}
}

// TestFusedFractionCompress is the coverage-floor sanity check behind
// BENCH_PR7.json's fused-fraction column: on the compress kernel the
// fused tier must carry more than half the executed instructions, and
// superinstructions more than a quarter of the fused tier.
func TestFusedFractionCompress(t *testing.T) {
	res, err := compile.Compile(bench.Compress(0.01), compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := vm.New(res.Prog, vm.Config{Handlers: res.Handlers, MaxCycles: 1 << 33})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	fs, total := m.FusionStats(), m.Stats().Instrs
	if total == 0 || fs.Instrs == 0 {
		t.Fatalf("no instructions attributed: fs=%+v total=%d", fs, total)
	}
	if share := float64(fs.Instrs) / float64(total); share < 0.5 {
		t.Errorf("fused tier carried %.1f%% of instructions, want >= 50%%", share*100)
	}
	if frac := float64(fs.Fused) / float64(fs.Instrs); frac < 0.25 {
		t.Errorf("fused-dispatch fraction %.1f%%, want >= 25%%", frac*100)
	}
}

// TestFusionDifferentialSweep is the seeded sweep behind `make
// fusion-smoke`: random programs (threaded and not) across a variant
// subset, healthy and cancelled, fused always compared bit-for-bit
// against the reference dispatcher. It subsumes nothing — the broad
// differential tests already run the fused and generic paths — but
// gives CI a single -run target that forces fusion through every
// variation under -race.
func TestFusionDifferentialSweep(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	variants := diffVariants()
	picks := []int{0, 2, 5} // plain, full-dup, timer
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: s%2 == 0})
			if err := prog.Verify(ir.VerifyBase); err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			for _, pi := range picks {
				v := variants[pi]
				ref, refRT, rerr := diffRun(t, prog, v, seed, true, nil)
				fast, fastRT, ferr := diffRun(t, prog, v, seed, false, nil)
				if (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s: fused err %v, reference err %v", v.name, ferr, rerr)
				}
				if ferr != nil {
					if ferr.Error() != rerr.Error() {
						t.Fatalf("%s: traps differ:\n  fused:     %v\n  reference: %v", v.name, ferr, rerr)
					}
				} else {
					compareRuns(t, v.name+"/fused", fast, ref, fastRT, refRT)
				}

				// Cancelled leg: a pre-fired token must stop both
				// dispatchers at the same observation point with
				// identical partial counters (fused path included).
				var stats [2]vm.Stats
				var msgs [2]string
				for i, reference := range []bool{false, true} {
					tok := vm.NewCancel()
					tok.Fire()
					m, _, _, cerr := cancelRun(t, prog, v, seed, reference, tok, nil)
					if cerr == nil {
						t.Fatalf("%s ref=%v: run survived pre-fired cancel", v.name, reference)
					}
					msgs[i] = cerr.Error()
					stats[i] = m.Stats()
				}
				if msgs[0] != msgs[1] {
					t.Errorf("%s: cancel errors differ:\n  fused:     %s\n  reference: %s", v.name, msgs[0], msgs[1])
				}
				if stats[0] != stats[1] {
					t.Errorf("%s: cancel stats diverge\n  fused:     %+v\n  reference: %+v", v.name, stats[0], stats[1])
				}
			}
		})
	}
}
