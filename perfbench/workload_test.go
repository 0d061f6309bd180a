package main

import "testing"

func TestPlanHashIsSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := planHash(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, _ := planHash(w, 7)
		c, _ := planHash(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s and %s", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share plan hash %s", w.Name, a)
		}
	}
}

func TestHotPlanResubmitsAFewSpecs(t *testing.T) {
	w, err := workloadByName("hot-cache")
	if err != nil {
		t.Fatal(err)
	}
	ops, err := daemonPlan(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, op := range ops {
		if op.Cancel || op.Spec.Bench == "" {
			t.Fatalf("op %d is not a finite bench job: %+v", op.Index, op)
		}
		keys[op.Spec.CellKey()] = true
	}
	if len(keys) > w.Distinct {
		t.Errorf("%d distinct specs, want at most %d", len(keys), w.Distinct)
	}
	// Every op must be one of the specs the set-up warms.
	warm := map[string]bool{}
	for _, op := range distinctOps(ops) {
		warm[op.Spec.CellKey()] = true
	}
	for k := range keys {
		if !warm[k] {
			t.Fatalf("spec %s is not among the warmed ones", k)
		}
	}
}
