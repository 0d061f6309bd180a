// Command perfbench is the repository's benchmark: one seeded command
// that runs a workload against the system built from this checkout,
// checks every result against the reference dispatcher, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of its output. See README.md for the workloads, the metrics
// and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"instrsample/internal/experiment"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// resultLine is the last line of every run.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runBudget bounds a whole invocation; past it the run fails rather than
// overrunning the time a caller allows.
const runBudget = 170 * time.Second

// clientGCPercent is the benchmark process's GOGC. The daemons it starts
// keep their default.
const clientGCPercent = 400

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload  = flag.String("workload", "", "workload name: soak-mix, hot-cache or fleet-mix")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 10, "measured window in seconds")
		traceFlag = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		bin       = flag.String("bin", ".bench_build/bin", "directory holding isampd, isampfleet and perfbench")
		outDir    = flag.String("out", ".bench_build/out", "directory for reports and spans")
	)
	flag.Parse()
	// The client's own collector runs on the CPUs the system under test
	// uses; collecting less often keeps it out of the latency tails.
	debug.SetGCPercent(clientGCPercent)
	w, err := workloadByName(*workload)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	window := time.Duration(*seconds * float64(time.Second))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(filepath.Dir(*outDir), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rf, err := openRefs(filepath.Join(filepath.Dir(*outDir), "refs"))
	if err != nil {
		return err
	}
	rn := &runner{env: env{bin: *bin, scratch: scratch}, refs: rf, hc: newHTTPClient()}
	stem := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *traceFlag))

	var line resultLine
	var report any
	if *traceFlag == 1 {
		rep, err := rn.traced(ctx, w, *seed, window)
		if err != nil {
			return err
		}
		if err := writeSpans(stem+"-spans.json", rep.spans); err != nil {
			return err
		}
		line = resultLine{Correct: rep.Tally.Failed() == 0, Attempted: rep.Tally.Attempted, Failed: rep.Tally.Failed(), Metrics: rep.Metrics}
		report = rep
	} else {
		res, err := rn.run(ctx, w, *seed, window, nil)
		if err != nil {
			return err
		}
		line = resultLine{Correct: res.Tally.Failed() == 0, Attempted: res.Tally.Attempted, Failed: res.Tally.Failed(), Metrics: endToEnd(res)}
		printE2E(res)
		report = struct {
			*e2e
			Metrics    metrics `json:"metrics"`
			FailedFrac float64 `json:"failed_frac"`
		}{res, line.Metrics, res.Tally.FailedFrac()}
	}
	if err := writeJSON(stem+".json", report); err != nil {
		return err
	}
	if line.Attempted < 1 {
		return fmt.Errorf("no op was attempted")
	}
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	printMetrics(line.Metrics)
	fmt.Printf("report: %s.json\n", stem)
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// endToEnd is the result line of an untraced run.
func endToEnd(res *e2e) metrics {
	m := metrics{}
	m.set("jobs_per_sec", res.JobsPerSec, "1/s")
	m.set("job_p50_ms", res.Job.Value, "ms")
	m.set("job_p99_ms", res.JobTail.Value, "ms")
	m.set("peak_rss_mb", res.PeakRSSMB, "MB")
	m.set("setup_s", Median(res.SetupS).Value, "s")
	return m
}

// printE2E prints the run's context: what ran, the sample counts behind
// each figure, and the metrics only some workloads have.
func printE2E(res *e2e) {
	t := res.Tally
	fmt.Printf("workload %s seed %d plan %s window %.1fs elapsed %.2fs\n",
		res.Workload.Name, res.Seed, res.PlanHash[:16], res.WindowS, res.ElapsedS)
	fmt.Printf("ops attempted %d done %d cancelled %d cancel-races %d | failed %d (job %d, refused %d, transport %d, wrong %d) failed_frac %.4f\n",
		t.Attempted, t.Done, t.Cancelled, t.CancelRaces, t.Failed(), t.JobFailed, t.Refused, t.Transport, t.Wrong, t.FailedFrac())
	fmt.Printf("job_p50_ms %.3f (n=%d)  job_p99_ms %.3f is p%.1f (n=%d, %d beyond)\n",
		res.Job.Value, res.Job.N, res.JobTail.Value, res.JobTail.Pct, res.JobTail.N, res.JobTail.Beyond)
	if res.CancelTail.N > 0 {
		fmt.Printf("cancel_p99_ms %.3f ms is p%.1f (n=%d, %d beyond)\n",
			res.CancelTail.Value, res.CancelTail.Pct, res.CancelTail.N, res.CancelTail.Beyond)
	}
	fmt.Printf("setup_s samples %v\n", res.SetupS)
	for _, f := range res.Failures {
		fmt.Println("failure:", f)
	}
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedReport is the traced run's outcome.
type tracedReport struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	PlanHash string `json:"plan_hash"`
	Run      *e2e   `json:"run"`
	Overhead Ratio  `json:"trace_overhead"`
	// UntracedRates and TracedRates are the jobs_per_sec of the run's
	// alternating untraced and traced slices.
	UntracedRates []float64   `json:"untraced_slice_rates"`
	TracedRates   []float64   `json:"traced_slice_rates"`
	Replayed      int         `json:"replayed_specs"`
	Filled        int         `json:"filled_specs"`
	Probes        []string    `json:"probes,omitempty"` // layers measured by a probe, not the traffic
	Tally         Tally       `json:"tally"`
	Failures      []string    `json:"failures,omitempty"`
	SelfTimes     []selfTime  `json:"self_times"`
	Metrics       metrics     `json:"metrics"`
	Fabric        fabricProbe `json:"fabric"`
	spans         []span
}

// perBenchReplay caps the distinct specs replayed per program.
const perBenchReplay = 4

// traced runs the workload with tracing on in every other traceSlice of
// the window (the ratio of the untraced slices' median throughput to the
// traced slices' is the tracing overhead), replays its distinct specs
// layer by layer, and probes the layers its traffic does not reach.
func (rn *runner) traced(ctx context.Context, w Workload, seed int64, window time.Duration) (*tracedReport, error) {
	tr := newTracer()
	res, err := rn.run(ctx, w, seed, window, tr)
	if err != nil {
		return nil, err
	}
	rep := &tracedReport{Workload: w.Name, Seed: seed, PlanHash: res.PlanHash, Run: res, Metrics: metrics{}}
	rep.UntracedRates, rep.TracedRates = SliceRates(res.DoneStartS, traceSlice.Seconds(), window.Seconds())
	rep.Overhead = NewRatio(Median(rep.UntracedRates).Value, Median(rep.TracedRates).Value, "traced slices' median jobs_per_sec")
	rep.Tally.Add(res.Tally)
	rep.Failures = append(rep.Failures, res.Failures...)
	m := rep.Metrics

	specs, filled := replaySet(res.ReplaySpecs, perBenchReplay)
	rep.Replayed, rep.Filled = len(specs), filled
	var jobs []refJob
	for _, s := range specs {
		jobs = append(jobs, refJob{s.Bench, s.Scale})
	}
	if err := rn.refs.ensure(jobs); err != nil {
		return nil, err
	}
	cache, err := experiment.OpenCache(filepath.Join(rn.env.scratch, "replay-cache"))
	if err != nil {
		return nil, err
	}
	st := replay(specs, rn.refs, cache, tr)
	rates, err := calibrate(tr)
	if err != nil {
		return nil, err
	}
	st.layerMetrics(m, rates)
	rep.Tally.Add(st.tally)
	rep.Failures = append(rep.Failures, st.failures...)

	fp := res.Fabric
	if fp == nil {
		rep.Probes = append(rep.Probes, "fabric")
		if fp, err = rn.fleetProbe(ctx, seed, tr); err != nil {
			return nil, err
		}
	}
	rep.Fabric = *fp
	rep.Tally.Add(fp.Tally)
	rep.Failures = append(rep.Failures, fp.Failures...)
	trafficLayers(m, res, fp, rep.Overhead)

	rep.spans = tr.snapshot()
	rep.SelfTimes = selfTimes(rep.spans)
	if len(rep.Failures) > 20 {
		rep.Failures = rep.Failures[:20]
	}
	for _, f := range rep.Failures {
		fmt.Println("failure:", f)
	}
	fmt.Printf("traced %s seed %d: %d spans, %d specs replayed (%d filled in), probes %v, overhead %.3f (median of untraced slices %.2f / traced slices %.2f jobs/s; slices %v / %v)\n",
		w.Name, seed, len(rep.spans), rep.Replayed, rep.Filled, rep.Probes, rep.Overhead.Value, rep.Overhead.Num, rep.Overhead.Den, rep.UntracedRates, rep.TracedRates)
	return rep, nil
}

// trafficLayers sets the per-layer metrics that come from a workload's
// traffic: the service as the client saw it, the experiment engine's
// memo and cache counters, the fleet (or the probe standing in for it),
// and the tracing overhead.
func trafficLayers(m metrics, res *e2e, fp *fabricProbe, overhead Ratio) {
	m.set("service.submit_us.p50", Median(res.SubmitUs).Value, "us")
	m.set("service.submit_us.p99", Tail(res.SubmitUs, 99).Value, "us")
	m.set("service.queue_wait_us.p50", Median(res.QueueWaitUs).Value, "us")
	m.set("service.queue_wait_us.p99", Tail(res.QueueWaitUs, 99).Value, "us")
	m.set("service.done_lag_us.p50", Median(res.DoneLagUs).Value, "us")
	m.set("service.rejected_429", float64(res.Rejected429), "count")

	memo, run := sumPrefix(res.Scraped, "cells_memo_hit"), sumPrefix(res.Scraped, "cells_run")
	hit, miss := sumPrefix(res.Scraped, "cells_cache_hit"), sumPrefix(res.Scraped, "cells_cache_miss")
	m.set("experiment.memo_hit_ratio", NewRatio(memo, memo+run, "cell requests").Value, "ratio")
	m.set("experiment.cache_hit_ratio", NewRatio(hit, hit+miss, "cache probes").Value, "ratio")

	m.set("fabric.front_door_us.p50", fp.FrontDoorUs, "us")
	m.set("fabric.cas_get_us.p50", fp.CASGetUs.Value, "us")
	m.set("fabric.steals", fp.Steals, "count")
	m.set("fabric.requeues", fp.Requeues, "count")
	m.set("fabric.cas_remote_hits", fp.CASRemoteHits, "count")
	m.set("trace.overhead_ratio", overhead.Value, "ratio")
}

// fleetProbe measures the fabric for a workload that bypasses it: a
// fresh fleet serves the first ops of the soak plan for the seed, then
// the front-door and CAS probes run.
func (rn *runner) fleetProbe(ctx context.Context, seed int64, tr *tracer) (*fabricProbe, error) {
	ops, err := soakPlan(seed, fleetProbeOps)
	if err != nil {
		return nil, err
	}
	if err := rn.refs.ensure(refJobs(ops)); err != nil {
		return nil, err
	}
	s, err := rn.env.startFleet()
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if err := awaitAccept(rn.hc, s.front); err != nil {
		return nil, err
	}
	d := drive(ctx, rn.hc, driveConfig{base: s.front, ops: ops, minOps: len(ops), tr: tr})
	t, failures := tally(rn.refs, d.records)
	fp, err := rn.probeFabric(ctx, s)
	if err != nil {
		return nil, err
	}
	fp.Tally.Add(t)
	fp.Failures = append(fp.Failures, failures...)
	return fp, nil
}
