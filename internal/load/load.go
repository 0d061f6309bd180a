// Package load is the sustained load-test and soak harness for the
// isampd daemon (cmd/isampd): it turns a serializable traffic-mix
// specification (Mix) into a deterministic, seeded sequence of job
// operations (Plan), drives a live daemon with that sequence from a pool
// of concurrent HTTP clients (Run) — realistic mixed traffic: suite
// benchmarks across sizes and framework variations, repeated specs that
// exercise the memo/cache path, mid-flight cancellations, SSE
// subscribers including deliberately slow readers, and 429-retry
// backoff — and checks the measured outcome against machine-verified
// regression gates (Gates). The performance record itself is perfbench
// (BENCHMARKING.md), which reuses Mix and Plan for its daemon workloads.
//
// Determinism contract: Plan is a pure function of the Mix (seed
// included) — an identical seed+mix yields an identical job-spec
// sequence, byte for byte (PlanHash is its SHA-256, printed by
// isampload and recorded by perfbench, so two runs can prove they
// replayed the same traffic). Wall-clock execution of the plan is of
// course timing-dependent; everything the gates assert is either a
// rate, a quantile, or an exact invariant (zero leaked goroutines, zero
// failed jobs) that must hold at any interleaving.
//
// See DESIGN.md §11 for the architecture, BENCHMARKING.md for the gate
// definitions, and cmd/isampload for the CLI.
package load

import (
	"encoding/json"
	"fmt"
	"io"
)

// Choice is one weighted alternative in a Mix. A weight of 0 disables
// the alternative; weights need not sum to anything in particular.
type Choice struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
}

// Mix is the serializable traffic-mix specification: everything the
// planner needs to regenerate a soak's job sequence. Probabilities are
// in [0, 1] and applied per operation in a fixed order, so the spec is
// portable — the same JSON replays the same traffic anywhere (the
// "portable program snippets" idea applied to load profiles).
type Mix struct {
	// Seed seeds the planner's PRNG. Same seed + same mix = same plan.
	Seed int64 `json:"seed"`
	// Ops is the plan length — the number of job operations generated.
	// The runner stops early when its duration budget expires.
	Ops int `json:"ops"`

	// Benches are the weighted suite benchmarks fresh jobs draw from.
	Benches []Choice `json:"benches"`
	// ScaleMin/ScaleMax bound the uniformly drawn benchmark scale.
	ScaleMin float64 `json:"scale_min"`
	ScaleMax float64 `json:"scale_max"`
	// Variations are the weighted framework variations ("" = none).
	Variations []Choice `json:"variations"`
	// Triggers are the weighted trigger kinds.
	Triggers []Choice `json:"triggers"`
	// Intervals are the candidate sample intervals (uniform choice).
	Intervals []int64 `json:"intervals"`
	// Instruments are the weighted instrumentations; each fresh job
	// draws 0–2 distinct ones (at least 1 when overlap is rolled).
	Instruments []Choice `json:"instruments"`

	// VerifyPct attaches the runtime invariant oracle to this fraction
	// of framework jobs, so the soak doubles as a correctness probe.
	VerifyPct float64 `json:"verify_pct"`
	// OverlapPct makes this fraction of instrumented jobs also run the
	// exhaustive reference and report profile-overlap accuracy.
	OverlapPct float64 `json:"overlap_pct"`
	// ReusePct resubmits an earlier op's spec verbatim — the cache-hit /
	// memo-dedup share of the traffic.
	ReusePct float64 `json:"reuse_pct"`
	// CancelPct turns the op into a long-running job that is cancelled
	// mid-flight (DELETE) after CancelAfterMsMin..Max milliseconds.
	CancelPct        float64 `json:"cancel_pct"`
	CancelAfterMsMin int     `json:"cancel_after_ms_min"`
	CancelAfterMsMax int     `json:"cancel_after_ms_max"`
	// SubscribePct attaches an SSE /events subscriber to the op's job;
	// SlowReaderPct of those subscribers read deliberately slowly to
	// exercise server-side flush backpressure.
	SubscribePct  float64 `json:"subscribe_pct"`
	SlowReaderPct float64 `json:"slow_reader_pct"`
}

// DefaultMix is the realistic mixed-traffic profile `make soak` runs:
// every suite benchmark, all four variations plus uninstrumented
// baselines, the full trigger family, a healthy cache-hit share,
// mid-flight cancellations and slow SSE readers.
func DefaultMix(seed int64, ops int) Mix {
	return Mix{
		Seed: seed,
		Ops:  ops,
		Benches: []Choice{
			{"compress", 3}, {"jess", 3}, {"db", 4}, {"javac", 3},
			{"mpegaudio", 2}, {"mtrt", 2}, {"jack", 2}, {"optc", 2},
			{"pbob", 1}, {"volano", 1}, {"resonant", 1},
		},
		ScaleMin: 0.01,
		ScaleMax: 0.05,
		Variations: []Choice{
			{"", 2}, {"full", 4}, {"partial", 2}, {"nodup", 2}, {"hybrid", 2},
		},
		Triggers: []Choice{
			{"counter", 5}, {"perthread", 2}, {"timer", 2}, {"random", 2},
		},
		Intervals: []int64{200, 1000, 5000},
		Instruments: []Choice{
			{"call-edge", 4}, {"field-access", 4}, {"edge", 2},
			{"block-count", 2}, {"path", 1}, {"value", 1},
		},
		VerifyPct:        0.15,
		OverlapPct:       0.05,
		ReusePct:         0.25,
		CancelPct:        0.10,
		CancelAfterMsMin: 5,
		CancelAfterMsMax: 40,
		SubscribePct:     0.25,
		SlowReaderPct:    0.20,
	}
}

// Validate rejects mixes the planner cannot satisfy.
func (m Mix) Validate() error {
	switch {
	case m.Ops < 1:
		return fmt.Errorf("ops must be at least 1")
	case totalWeight(m.Benches) <= 0:
		return fmt.Errorf("benches need at least one positive weight")
	case totalWeight(m.Variations) <= 0:
		return fmt.Errorf("variations need at least one positive weight")
	case totalWeight(m.Triggers) <= 0:
		return fmt.Errorf("triggers need at least one positive weight")
	case len(m.Intervals) == 0:
		return fmt.Errorf("intervals must be non-empty")
	case m.ScaleMin <= 0 || m.ScaleMax < m.ScaleMin:
		return fmt.Errorf("scale range [%g, %g] invalid", m.ScaleMin, m.ScaleMax)
	case m.CancelPct > 0 && (m.CancelAfterMsMin < 0 || m.CancelAfterMsMax < m.CancelAfterMsMin):
		return fmt.Errorf("cancel_after_ms range [%d, %d] invalid", m.CancelAfterMsMin, m.CancelAfterMsMax)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"verify_pct", m.VerifyPct}, {"overlap_pct", m.OverlapPct},
		{"reuse_pct", m.ReusePct}, {"cancel_pct", m.CancelPct},
		{"subscribe_pct", m.SubscribePct}, {"slow_reader_pct", m.SlowReaderPct},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s %g out of [0, 1]", p.name, p.v)
		}
	}
	if m.OverlapPct > 0 && totalWeight(m.Instruments) <= 0 {
		return fmt.Errorf("overlap_pct > 0 needs at least one instrument weight")
	}
	return nil
}

func totalWeight(cs []Choice) int {
	t := 0
	for _, c := range cs {
		if c.Weight > 0 {
			t += c.Weight
		}
	}
	return t
}

// ReadMix decodes a Mix from JSON, rejecting unknown fields so a typo in
// a mix file fails loudly instead of silently changing the traffic.
func ReadMix(r io.Reader) (Mix, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Mix
	if err := dec.Decode(&m); err != nil {
		return Mix{}, fmt.Errorf("mix: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Mix{}, fmt.Errorf("mix: %w", err)
	}
	return m, nil
}
