package vm_test

// Cancellation-seam tests: the vm.Cancel token must obey the Observer-style
// cost contract (armed-but-never-fired changes nothing observable, under
// either dispatcher), and a fired token must stop both dispatchers at the
// same observation point with identical flushed counters. These are the
// executable form of DESIGN.md §10's cancellation contract.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"instrsample/internal/compile"
	"instrsample/internal/instr"
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// cancelRun mirrors diffRun but wires a Cancel token and an optional
// observer, and returns the VM so tests can read Stats after an error.
func cancelRun(t *testing.T, prog *ir.Program, v diffVariant, seed uint64, reference bool, tok *vm.Cancel, obs vm.Observer) (*vm.VM, *vm.Result, []instr.Runtime, error) {
	t.Helper()
	opts := compile.Options{Framework: v.fw}
	if v.inst {
		opts.Instrumenters = diffInstrumenters()
	}
	res, err := compile.Compile(prog, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := vm.Config{
		Handlers:  res.Handlers,
		MaxCycles: 1 << 33,
		ICache:    v.ic,
		Reference: reference,
		Cancel:    tok,
		Observer:  obs,
	}
	if v.trig != nil {
		cfg.Trigger = v.trig(seed)
	}
	if v.fw != nil && v.fw.CountedIterations {
		cfg.IterBudget = 8
	}
	m := vm.New(res.Prog, cfg)
	out, rerr := m.Run()
	return m, out, res.Runtimes, rerr
}

// TestCancelArmedUnfiredIdentical runs every differential variant with an
// armed-but-never-fired token and requires bit-identical results against
// the nil-token run, on both dispatchers. This pins the poll down to "a
// relaxed load and nothing else".
func TestCancelArmedUnfiredIdentical(t *testing.T) {
	for s, threads := range []bool{false, true} {
		seed := uint64(s)*2862933555777941757 + 3037000493
		prog := ir.RandomProgram(seed, ir.RandomProgramConfig{WithThreads: threads})
		if err := prog.Verify(ir.VerifyBase); err != nil {
			t.Fatalf("generated program invalid: %v", err)
		}
		for _, v := range diffVariants() {
			for _, reference := range []bool{false, true} {
				label := fmt.Sprintf("%s/threads=%v/ref=%v", v.name, threads, reference)
				_, base, baseRT, berr := cancelRun(t, prog, v, seed, reference, nil, nil)
				tok := vm.NewCancel()
				_, armed, armedRT, aerr := cancelRun(t, prog, v, seed, reference, tok, nil)
				if berr != nil || aerr != nil {
					t.Fatalf("%s: unexpected errors: base %v, armed %v", label, berr, aerr)
				}
				if tok.Fired() {
					t.Fatalf("%s: token fired spontaneously", label)
				}
				compareRuns(t, label, base, armed, baseRT, armedRT)
			}
		}
	}
}

// TestCancelPrefired fires the token before Run: both dispatchers must
// stop at the very first observation point with the identical
// CancelError and identical partial Stats. The plain variant keeps the
// fast dispatcher on the fused tier, so this also covers the prefix-sum
// counter reconstruction at a fused yieldpoint (fuse.go).
func TestCancelPrefired(t *testing.T) {
	prog := ir.RandomProgram(11, ir.RandomProgramConfig{})
	for _, v := range []diffVariant{diffVariants()[0], diffVariants()[2]} {
		var errs [2]string
		var stats [2]vm.Stats
		for i, reference := range []bool{false, true} {
			tok := vm.NewCancel()
			tok.Fire()
			m, res, _, err := cancelRun(t, prog, v, 11, reference, tok, nil)
			if err == nil {
				t.Fatalf("%s ref=%v: run completed despite pre-fired cancel", v.name, reference)
			}
			if !vm.IsCancelled(err) {
				t.Fatalf("%s ref=%v: got %v, want CancelError", v.name, reference, err)
			}
			var ce *vm.CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("%s ref=%v: errors.As failed on %v", v.name, reference, err)
			}
			if ce.Cycles != m.Stats().Cycles {
				t.Errorf("%s ref=%v: CancelError.Cycles %d != Stats().Cycles %d", v.name, reference, ce.Cycles, m.Stats().Cycles)
			}
			if res != nil {
				t.Errorf("%s ref=%v: non-nil Result on cancel", v.name, reference)
			}
			errs[i] = err.Error()
			stats[i] = m.Stats()
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: errors differ:\n  fast:      %s\n  reference: %s", v.name, errs[0], errs[1])
		}
		if stats[0] != stats[1] {
			t.Errorf("%s: partial stats diverge\n  fast:      %+v\n  reference: %+v", v.name, stats[0], stats[1])
		}
	}
}

// fireAfterObserver fires the token when the n-th check (or yield, if
// yields is set) executes. Because observer events are deterministic and
// identical across dispatchers, the token fires at the same logical point
// in both runs, so the stop states must match exactly.
type fireAfterObserver struct {
	tok            *vm.Cancel
	checks, yields int
	fireCheck      int // fire at this 1-based check count (0 = never)
	fireYield      int // fire at this 1-based yield count (0 = never)
}

func (o *fireAfterObserver) OnEnter(*vm.Thread, *vm.Frame)                    {}
func (o *fireAfterObserver) OnExit(*vm.Thread, *vm.Frame)                     {}
func (o *fireAfterObserver) OnTransfer(*vm.Thread, *vm.Frame, *ir.Instr, int) {}
func (o *fireAfterObserver) OnProbe(*vm.Thread, *vm.Frame, *ir.Probe)         {}
func (o *fireAfterObserver) OnCheck(_ *vm.Thread, _ *vm.Frame, _ *ir.Instr, _ bool) {
	o.checks++
	if o.checks == o.fireCheck {
		o.tok.Fire()
	}
}
func (o *fireAfterObserver) OnYield(*vm.Thread, *vm.Frame) {
	o.yields++
	if o.yields == o.fireYield {
		o.tok.Fire()
	}
}

// TestCancelMidRunDeterministic fires the token at a deterministic event
// mid-run (the 5th yield for the plain variant, the 5th check for the
// instrumented ones) and requires both dispatchers to stop with the same
// error and the same partial Stats — i.e. cancellation lands on the same
// observation point regardless of dispatcher.
func TestCancelMidRunDeterministic(t *testing.T) {
	prog := ir.RandomProgram(23, ir.RandomProgramConfig{})
	for _, v := range []diffVariant{diffVariants()[0], diffVariants()[2], diffVariants()[4]} {
		var errs [2]string
		var stats [2]vm.Stats
		cancelledBoth := true
		for i, reference := range []bool{false, true} {
			tok := vm.NewCancel()
			obs := &fireAfterObserver{tok: tok}
			if v.inst {
				obs.fireCheck = 5
			} else {
				obs.fireYield = 5
			}
			m, _, _, err := cancelRun(t, prog, v, 23, reference, tok, obs)
			if err == nil {
				// The program may finish before the 5th event; that must
				// then happen under both dispatchers (checked below).
				cancelledBoth = false
				errs[i] = ""
			} else {
				if !vm.IsCancelled(err) {
					t.Fatalf("%s ref=%v: got %v, want CancelError", v.name, reference, err)
				}
				errs[i] = err.Error()
			}
			stats[i] = m.Stats()
		}
		if (errs[0] == "") != (errs[1] == "") {
			t.Fatalf("%s: one dispatcher cancelled, the other finished: fast=%q reference=%q", v.name, errs[0], errs[1])
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: errors differ:\n  fast:      %s\n  reference: %s", v.name, errs[0], errs[1])
		}
		if stats[0] != stats[1] {
			t.Errorf("%s: partial stats diverge\n  fast:      %+v\n  reference: %+v", v.name, stats[0], stats[1])
		}
		if !cancelledBoth {
			t.Logf("%s: program finished before the 5th event (still verified equal)", v.name)
		}
	}
}

// TestCancelAsyncStopsHotLoop arms a token on an effectively unbounded
// compiled loop (yieldpoints on the backedge) and fires it from another
// goroutine: Run must return promptly with a CancelError instead of
// spinning to MaxCycles. This is the liveness half of the contract the
// daemon's DELETE /v1/jobs/{id} depends on.
func TestCancelAsyncStopsHotLoop(t *testing.T) {
	b := ir.NewFunc("main", 0)
	c := b.At(b.EntryBlock())
	n := c.Const(1 << 40)
	lp := c.CountedLoop(n, "spin")
	lp.Body.Jump(lp.Latch)
	lp.After.Return(lp.I)
	prog := &ir.Program{Name: "spin", Funcs: []*ir.Method{b.M}, Main: b.M}
	prog.Seal()

	res, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Fire only once the run has provably scheduled its first thread:
	// the Sched hook runs on the VM goroutine immediately before the
	// thread executes, so the token lands on a running loop.
	tok := vm.NewCancel()
	started := make(chan struct{})
	var once sync.Once
	m := vm.New(res.Prog, vm.Config{
		MaxCycles: 1 << 62,
		Cancel:    tok,
		Sched:     func(int) { once.Do(func() { close(started) }) },
	})
	go func() {
		<-started
		tok.Fire()
	}()
	done := make(chan error, 1)
	go func() {
		_, rerr := m.Run()
		done <- rerr
	}()
	select {
	case rerr := <-done:
		if !vm.IsCancelled(rerr) {
			t.Fatalf("got %v, want CancelError", rerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not stop within 30s")
	}
	if st := m.Stats(); st.Instrs == 0 {
		t.Errorf("stats not flushed at cancel: %+v", st)
	}
}

// TestIsCancelled pins the error classification: CancelError (wrapped or
// not) is a cancellation, anything else is not.
func TestIsCancelled(t *testing.T) {
	ce := &vm.CancelError{Cycles: 42}
	if !vm.IsCancelled(ce) {
		t.Error("IsCancelled(CancelError) = false")
	}
	if !vm.IsCancelled(fmt.Errorf("job: %w", ce)) {
		t.Error("IsCancelled(wrapped CancelError) = false")
	}
	if vm.IsCancelled(errors.New("division by zero")) {
		t.Error("IsCancelled(plain error) = true")
	}
	if vm.IsCancelled(nil) {
		t.Error("IsCancelled(nil) = true")
	}
	if want := "vm: run cancelled at cycle 42"; ce.Error() != want {
		t.Errorf("Error() = %q, want %q", ce.Error(), want)
	}
	tok := vm.NewCancel()
	if tok.Fired() {
		t.Error("fresh token reports fired")
	}
	tok.Fire()
	tok.Fire() // idempotent
	if !tok.Fired() {
		t.Error("fired token reports unfired")
	}
}
