package main

import (
	"fmt"
	"math/rand"

	"instrsample/internal/load"
	"instrsample/internal/service"
)

// Workload kinds: where the load goes.
const (
	kindDaemon = "daemon" // one isampd
	kindFleet  = "fleet"  // isampfleet over two isampd workers
)

// Workload is one named input set. Settings are recorded in every report
// next to the plan hash, so a result names exactly what produced it.
type Workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// PlanOps is the plan length; a run stops at the end of its window
	// and never gets near it on a 2-CPU host.
	PlanOps int `json:"plan_ops,omitempty"`
	// RSSOps is the fixed op count peak RSS is read at, so a faster
	// system doing more ops in the window does not look fatter.
	RSSOps int `json:"rss_ops,omitempty"`
	// Distinct is the hot-cache spec set size.
	Distinct int `json:"distinct,omitempty"`
	// Clients is the number of closed-loop clients (0: the default 2).
	Clients int `json:"clients,omitempty"`
	// TailChunk, when set, makes job_p99_ms the median of the p99s of
	// consecutive chunks of this many jobs (see ChunkedTail).
	TailChunk int `json:"tail_chunk,omitempty"`
}

var workloads = []Workload{
	{Name: "soak-mix", Kind: kindDaemon, PlanOps: 12000, RSSOps: 3000},
	{Name: "hot-cache", Kind: kindDaemon, PlanOps: 150000, RSSOps: 60000, Distinct: 36, Clients: 1, TailChunk: 2000},
	{Name: "fleet-mix", Kind: kindFleet, PlanOps: 12000, RSSOps: 800},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// soakPlan is load.DefaultMix's traffic for the seed: the mix isampd
// serves, unchanged.
func soakPlan(seed int64, ops int) ([]load.Op, error) {
	return load.Plan(load.DefaultMix(seed, ops))
}

// hotPlan resubmits a few dozen specs over and over. The specs are the
// first fresh specs DefaultMix draws for the seed (no cancels, so every
// one is a finite job the set-up can warm into the disk cache); each op
// picks one of them uniformly.
func hotPlan(seed int64, distinct, ops int) ([]load.Op, error) {
	m := load.DefaultMix(seed, distinct)
	m.ReusePct, m.CancelPct, m.SubscribePct = 0, 0, 0
	fresh, err := load.Plan(m)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	plan := make([]load.Op, ops)
	for i := range plan {
		src := rng.Intn(len(fresh))
		plan[i] = load.Op{Index: i, Spec: fresh[src].Spec, ReuseOf: -1}
	}
	return plan, nil
}

// distinctOps are the first op of each distinct spec (by cell key), in
// plan order: what the hot-cache set-up resolves into the disk cache, and
// what a traced run replays.
func distinctOps(ops []load.Op) []load.Op {
	seen := map[string]bool{}
	var out []load.Op
	for _, op := range ops {
		if k := op.Spec.CellKey(); !seen[k] {
			seen[k] = true
			out = append(out, op)
		}
	}
	return out
}

// daemonPlan returns the op sequence of a daemon or fleet workload.
func daemonPlan(w Workload, seed int64) ([]load.Op, error) {
	if w.Name == "hot-cache" {
		return hotPlan(seed, w.Distinct, w.PlanOps)
	}
	return soakPlan(seed, w.PlanOps)
}

// planHash is the load plan's own hash for a workload and seed.
func planHash(w Workload, seed int64) (string, error) {
	ops, err := daemonPlan(w, seed)
	if err != nil {
		return "", err
	}
	return load.PlanHash(ops), nil
}

// probeSpec is the job set-up timing submits: a three-instruction source
// program, so "first request accepted" measures the daemon, not a run.
var probeSpec = service.JobSpec{Source: "func main() {\nentry:\n  const r, 7\n  ret r\n}\n"}
