package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instrsample/internal/load"
)

// smokeMix is the CI soak profile: the default mix narrowed to small
// scales so a few seconds of wall time still drives hundreds of jobs
// through every traffic class, on shared hosts, under the race
// detector.
func smokeMix(t *testing.T, seed int64, ops int) (load.Mix, string) {
	t.Helper()
	mix := load.DefaultMix(seed, ops)
	mix.ScaleMax = 0.02
	path := filepath.Join(t.TempDir(), "mix.json")
	b, err := json.Marshal(mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return mix, path
}

// TestSoakSmoke is the ci gate: a short seeded soak against a
// self-hosted daemon on an ephemeral port, with the regression gates
// enforced — relaxed timing ceilings for shared CI hosts, but the exact
// gates (zero failed jobs, zero leaked goroutines, zero transport
// errors) at full strength. One worker plus a 4-deep queue holds five
// jobs, fewer than the six closed-loop clients keep outstanding, so
// the 429-retry path runs on every host, however fast or wide.
func TestSoakSmoke(t *testing.T) {
	mix, mixPath := smokeMix(t, 1, 600)
	var stdout, stderr bytes.Buffer

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, verdicts, err := run(ctx, []string{
		"-mix", mixPath,
		"-duration", "2500ms",
		"-clients", "6",
		"-self-j", "1",
		"-self-queue", "4",
		"-min-throughput", "3",
		"-max-p99-ms", "30000",
		"-max-cancel-p99-ms", "10000",
		"-max-queue-wait-p99-ms", "30000",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("soak failed: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !load.AllOK(verdicts) {
		t.Errorf("gates violated despite run() success\nstdout:\n%s", stdout.String())
	}

	// End-to-end determinism receipt: the plan hash on the summary line
	// must match an independent expansion of the same mix file.
	plan, err := load.Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	if want := "soak: plan " + load.PlanHash(plan) + ","; !strings.Contains(stdout.String(), want) {
		t.Errorf("summary lacks the recomputed plan hash %q\nstdout:\n%s", want, stdout.String())
	}

	// The smoke must have exercised the interesting traffic classes, not
	// merely submitted trivial jobs.
	c := res.Counts
	if c.Submitted == 0 {
		t.Fatal("no jobs submitted")
	}
	if c.CancelRequested+c.CancelRaces == 0 {
		t.Error("no cancel ops ran")
	}
	if c.SSEStreams == 0 {
		t.Error("no SSE subscribers ran")
	}
	if c.Rejected429 == 0 {
		t.Error("queue depth 4 with 6 clients produced no 429 backpressure")
	}

	// The self-hosted daemon runs at -self-obs spans by default, so the
	// run carries server-side attribution ledgers and the queue-wait
	// gate must have engaged (not passed vacuously).
	if res.LedgerOps == 0 {
		t.Error("no attribution ledgers captured from the obs-enabled daemon")
	}
	if res.QueueWaitUs.Count == 0 {
		t.Error("ledgers captured but no queue-wait observations")
	}
	gated := false
	for _, g := range verdicts {
		if g.Name == "queue_wait_p99_ms" {
			gated = true
		}
	}
	if !gated {
		t.Error("queue_wait_p99_ms gate did not engage")
	}
	t.Logf("smoke: %+v, ledgers %d", c, res.LedgerOps)
}

// TestPrintPlanDeterministic checks the CLI plan path: two -print-plan
// invocations of the same mix file emit identical bytes.
func TestPrintPlanDeterministic(t *testing.T) {
	_, mixPath := smokeMix(t, 9, 40)
	outs := make([]string, 2)
	for i := range outs {
		var stdout, stderr bytes.Buffer
		if _, _, err := run(context.Background(), []string{"-mix", mixPath, "-print-plan"}, &stdout, &stderr); err != nil {
			t.Fatalf("print-plan: %v\n%s", err, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Error("-print-plan output differs between identical invocations")
	}
	if len(outs[0]) == 0 {
		t.Error("-print-plan emitted nothing")
	}
}

// TestGateFailureExit checks that a violated gate surfaces as errGates —
// the CLI's non-zero exit — while the verdicts are still printed.
func TestGateFailureExit(t *testing.T) {
	_, mixPath := smokeMix(t, 2, 80)
	var stdout, stderr bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, verdicts, err := run(ctx, []string{
		"-mix", mixPath,
		"-duration", "500ms",
		"-min-throughput", "1e9", // unreachable floor
	}, &stdout, &stderr)
	if err != errGates {
		t.Fatalf("want errGates, got %v\nstdout:\n%s", err, stdout.String())
	}
	if load.AllOK(verdicts) {
		t.Errorf("errGates returned but every verdict held: %+v", verdicts)
	}
	if !strings.Contains(stdout.String(), "VIOLATED") {
		t.Errorf("violated gate not printed\nstdout:\n%s", stdout.String())
	}
}
