package load

// Gates are the machine-checked floors and ceilings a soak must respect.
// Zero-valued bounds disable the corresponding gate, except the
// always-on exact gates (failed jobs, leaked goroutines), whose bound is
// genuinely zero.
type Gates struct {
	// MinThroughputJobsPerSec floors the terminal-ops-per-second rate.
	MinThroughputJobsPerSec float64 `json:"min_throughput_jobs_per_sec"`
	// MaxP99Ms ceilings the accepted→terminal p99 of non-cancel ops.
	MaxP99Ms uint64 `json:"max_p99_ms"`
	// MaxCancelP99Ms ceilings the DELETE→terminal p99 of cancel ops —
	// the wall-clock proxy for "a cancel lands within one observation
	// interval": the VM-side stop is bounded by the next observation
	// point, so everything above HTTP+poll overhead is regression.
	MaxCancelP99Ms uint64 `json:"max_cancel_p99_ms"`
	// MaxLeakedGoroutines bounds AfterDrain-minus-baseline goroutines
	// (0 = the zero-leak gate, still enforced).
	MaxLeakedGoroutines int `json:"max_leaked_goroutines"`
	// MaxQueueWaitP99Ms ceilings the p99 of the queue-wait stage as the
	// daemon's own attribution ledgers measured it (server-side wall
	// clock, not harness polling). The gate only engages when the run
	// observed ledgers (LedgerOps > 0) — an obs-off daemon reports none,
	// and the gate must not pass vacuously against a misconfigured soak,
	// so isampload self-hosted runs enable obs.
	MaxQueueWaitP99Ms uint64 `json:"max_queue_wait_p99_ms"`
	// MaxFailedJobs bounds jobs that resolved failed (0 = none allowed,
	// still enforced). The soak submits no timeout jobs, so any failure
	// is a real regression in the compile/run/queue path.
	MaxFailedJobs int64 `json:"max_failed_jobs"`
	// MinSubmitted floors the number of accepted ops, so a soak that
	// silently submitted almost nothing cannot pass its other gates
	// vacuously.
	MinSubmitted int64 `json:"min_submitted"`
}

// DefaultGates are deliberately conservative bounds for shared CI hosts;
// `make soak` tightens throughput via flags when run on a known machine.
func DefaultGates() Gates {
	return Gates{
		MinThroughputJobsPerSec: 5,
		MaxP99Ms:                2000,
		MaxCancelP99Ms:          1000,
		MaxQueueWaitP99Ms:       1500,
		MaxLeakedGoroutines:     0,
		MaxFailedJobs:           0,
		MinSubmitted:            20,
	}
}

// GateResult is one gate's verdict.
type GateResult struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	// Op is the comparison that must hold: "value >= bound" or
	// "value <= bound".
	Op string `json:"op"`
	OK bool   `json:"ok"`
}

func gateMin(name string, value, bound float64) GateResult {
	return GateResult{Name: name, Value: value, Bound: bound, Op: ">=", OK: value >= bound}
}

func gateMax(name string, value, bound float64) GateResult {
	return GateResult{Name: name, Value: value, Bound: bound, Op: "<=", OK: value <= bound}
}

// Check evaluates every enabled gate against the run's measurements.
func (g Gates) Check(r *Result) []GateResult {
	var out []GateResult
	if g.MinSubmitted > 0 {
		out = append(out, gateMin("submitted", float64(r.Counts.Submitted), float64(g.MinSubmitted)))
	}
	if g.MinThroughputJobsPerSec > 0 {
		out = append(out, gateMin("throughput_jobs_per_sec", r.ThroughputJobsPerSec, g.MinThroughputJobsPerSec))
	}
	if g.MaxP99Ms > 0 {
		out = append(out, gateMax("job_latency_p99_ms", float64(r.JobLatencyMs.P99), float64(g.MaxP99Ms)))
	}
	if g.MaxCancelP99Ms > 0 && r.CancelLatencyMs.Count > 0 {
		out = append(out, gateMax("cancel_latency_p99_ms", float64(r.CancelLatencyMs.P99), float64(g.MaxCancelP99Ms)))
	}
	if g.MaxQueueWaitP99Ms > 0 && r.LedgerOps > 0 {
		out = append(out, gateMax("queue_wait_p99_ms", float64(r.QueueWaitUs.P99)/1e3, float64(g.MaxQueueWaitP99Ms)))
	}
	out = append(out,
		gateMax("failed_jobs", float64(r.Counts.Failed), float64(g.MaxFailedJobs)),
		gateMax("leaked_goroutines", float64(r.LeakedGoroutines), float64(g.MaxLeakedGoroutines)),
		gateMax("transport_errors", float64(r.Counts.TransportErrors), 0),
	)
	return out
}

// AllOK reports whether every gate held.
func AllOK(gates []GateResult) bool {
	for _, g := range gates {
		if !g.OK {
			return false
		}
	}
	return true
}
