package load

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"instrsample/internal/service"
	"instrsample/internal/telemetry"
)

// TestPlanDeterministic is the acceptance-criterion test: an identical
// seed+mix yields an identical job-spec sequence — byte for byte through
// JSON — and the plan hash captures that.
func TestPlanDeterministic(t *testing.T) {
	mix := DefaultMix(42, 500)
	a, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("two plans from the same seed+mix differ")
	}
	if PlanHash(a) != PlanHash(b) {
		t.Fatal("plan hashes differ for identical plans")
	}

	// A mix that survives a JSON round trip (the portable-spec path)
	// plans the same sequence.
	var rt Mix
	mj, _ := json.Marshal(mix)
	if err := json.Unmarshal(mj, &rt); err != nil {
		t.Fatal(err)
	}
	c, err := Plan(rt)
	if err != nil {
		t.Fatal(err)
	}
	if PlanHash(c) != PlanHash(a) {
		t.Fatal("JSON round-tripped mix plans a different sequence")
	}

	// A different seed yields a different sequence.
	other := mix
	other.Seed = 43
	d, err := Plan(other)
	if err != nil {
		t.Fatal(err)
	}
	if PlanHash(d) == PlanHash(a) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestPlanSpecsValid: every generated spec must pass the daemon's own
// validation — the harness must never manufacture 400s.
func TestPlanSpecsValid(t *testing.T) {
	ops, err := Plan(DefaultMix(7, 1000))
	if err != nil {
		t.Fatal(err)
	}
	post := func(spec service.JobSpec) error {
		// Round-trip through JSON exactly as the HTTP path does.
		b, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		var decoded service.JobSpec
		if err := json.Unmarshal(b, &decoded); err != nil {
			return err
		}
		return decoded.Valid()
	}
	for _, op := range ops {
		if err := post(op.Spec); err != nil {
			t.Fatalf("op %d generated an invalid spec: %v\n%+v", op.Index, err, op.Spec)
		}
	}
}

// TestPlanMixShape: the plan realizes every requested traffic class and
// respects the structural invariants the runner depends on.
func TestPlanMixShape(t *testing.T) {
	mix := DefaultMix(11, 2000)
	ops, err := Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	var cancels, reuses, subs, slow, overlaps, verifies int
	for _, op := range ops {
		switch {
		case op.Cancel:
			cancels++
			if op.Spec.Source == "" {
				t.Fatalf("op %d: cancel op must be a long-running source job", op.Index)
			}
			if op.CancelAfterMs < mix.CancelAfterMsMin || op.CancelAfterMs > mix.CancelAfterMsMax {
				t.Fatalf("op %d: cancel delay %dms outside mix range", op.Index, op.CancelAfterMs)
			}
			if op.ReuseOf != -1 {
				t.Fatalf("op %d: cancel ops must not be reuses", op.Index)
			}
		case op.ReuseOf >= 0:
			reuses++
			if op.ReuseOf >= op.Index {
				t.Fatalf("op %d: reuse_of %d is not an earlier op", op.Index, op.ReuseOf)
			}
			ref := ops[op.ReuseOf]
			if ref.Cancel {
				t.Fatalf("op %d reuses cancel op %d", op.Index, op.ReuseOf)
			}
			a, _ := json.Marshal(op.Spec)
			b, _ := json.Marshal(ref.Spec)
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d: reused spec differs from op %d's", op.Index, op.ReuseOf)
			}
		}
		if op.Subscribe {
			subs++
		}
		if op.SlowReader {
			slow++
			if !op.Subscribe {
				t.Fatalf("op %d: slow reader without subscription", op.Index)
			}
		}
		if op.Spec.Overlap {
			overlaps++
			if len(op.Spec.Instrument) == 0 {
				t.Fatalf("op %d: overlap without instrumentation", op.Index)
			}
		}
		if op.Spec.Verify {
			verifies++
			if op.Spec.Variation == "" {
				t.Fatalf("op %d: verify without a framework variation", op.Index)
			}
		}
	}
	for name, n := range map[string]int{
		"cancel": cancels, "reuse": reuses, "subscribe": subs,
		"slow-reader": slow, "overlap": overlaps, "verify": verifies,
	} {
		if n == 0 {
			t.Errorf("mix requested %s traffic but the plan contains none", name)
		}
	}
	// Distinct cancel ops must be distinct cells (see Plan).
	srcs := map[string]int{}
	for _, op := range ops {
		if op.Cancel {
			if prev, dup := srcs[op.Spec.Source]; dup {
				t.Fatalf("cancel ops %d and %d share a source program", prev, op.Index)
			}
			srcs[op.Spec.Source] = op.Index
		}
	}
}

// TestMixValidateAndRead covers the spec-file path: unknown fields and
// unsatisfiable mixes must fail loudly.
func TestMixValidateAndRead(t *testing.T) {
	good := DefaultMix(1, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("default mix invalid: %v", err)
	}
	bad := []Mix{
		{}, // no ops
		func() Mix { m := good; m.Benches = nil; return m }(),                      // no benches
		func() Mix { m := good; m.ScaleMin = 0; return m }(),                       // zero scale
		func() Mix { m := good; m.CancelPct = 1.5; return m }(),                    // pct out of range
		func() Mix { m := good; m.Intervals = nil; return m }(),                    // no intervals
		func() Mix { m := good; m.CancelAfterMsMax = -1; return m }(),              // bad cancel range
		func() Mix { m := good; m.Variations = []Choice{{"full", 0}}; return m }(), // all-zero weights
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad mix %d validated", i)
		}
	}

	if _, err := ReadMix(strings.NewReader(`{"seed": 1, "opps": 3}`)); err == nil {
		t.Error("unknown field accepted")
	}
	mj, _ := json.Marshal(good)
	m, err := ReadMix(bytes.NewReader(mj))
	if err != nil {
		t.Fatalf("round-tripped mix rejected: %v", err)
	}
	if m.Seed != good.Seed || m.Ops != good.Ops {
		t.Errorf("ReadMix mangled the mix: %+v", m)
	}
}

// TestGates exercises the gate arithmetic on synthetic results.
func TestGates(t *testing.T) {
	ok := &Result{
		ThroughputJobsPerSec: 100,
		JobLatencyMs:         telemetry.Summary{Count: 500, P99: 40},
		CancelLatencyMs:      telemetry.Summary{Count: 30, P99: 25},
		Counts:               Counts{Submitted: 500},
	}
	g := DefaultGates()
	if res := g.Check(ok); !AllOK(res) {
		t.Errorf("healthy result violated gates: %+v", res)
	}

	for name, mutate := range map[string]func(*Result){
		"throughput":  func(r *Result) { r.ThroughputJobsPerSec = 1 },
		"p99":         func(r *Result) { r.JobLatencyMs.P99 = 5000 },
		"cancel p99":  func(r *Result) { r.CancelLatencyMs.P99 = 5000 },
		"failed jobs": func(r *Result) { r.Counts.Failed = 1 },
		"leak":        func(r *Result) { r.LeakedGoroutines = 2 },
		"transport":   func(r *Result) { r.Counts.TransportErrors = 1 },
		"submitted":   func(r *Result) { r.Counts.Submitted = 3 },
	} {
		bad := *ok
		mutate(&bad)
		if res := g.Check(&bad); AllOK(res) {
			t.Errorf("gate %q did not trip: %+v", name, res)
		}
	}

	// Disabled cancel gate: no cancel observations means no verdict.
	none := *ok
	none.CancelLatencyMs = telemetry.Summary{}
	for _, gr := range g.Check(&none) {
		if gr.Name == "cancel_latency_p99_ms" {
			t.Error("cancel gate asserted with zero observations")
		}
	}
}
