// Command isampload is the soak gate for isampd: it expands a
// deterministic, seeded traffic mix into a job sequence
// (internal/load.Plan), drives a live daemon with concurrent HTTP
// clients for the configured duration — cache-hit reuse, mid-flight
// cancellations, SSE subscribers with slow readers, 429-retry backoff —
// and checks the machine-checked regression gates. It prints a summary
// and the gate verdicts and writes no report: the performance record is
// perfbench (BENCHMARKING.md).
//
//	isampload -duration 30s                     # self-host a daemon, 30s soak
//	isampload -addr http://127.0.0.1:8347       # soak an external daemon
//	isampload -mix mix.json                     # replay a recorded traffic mix
//	isampload -print-plan -ops 50               # show the expanded op sequence
//
// With no -addr, isampload boots an in-process service.Server on an
// ephemeral port, so `make soak` needs no coordination with a running
// daemon — and the goroutine-leak gate then covers the daemon and the
// harness in one process. Exit status is non-zero when any gate is
// violated, so CI can run a short soak as a hard check. See
// BENCHMARKING.md for the gate definitions and DESIGN.md §11 for the
// architecture.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"instrsample/internal/load"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, _, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "isampload:", err)
		os.Exit(1)
	}
}

// errGates marks a run whose measurements violated the gate budget; the
// soak itself completed, so the summary and verdicts are still printed
// before main turns this into a non-zero exit.
var errGates = errors.New("gates violated")

// run is main minus the process concerns: flags in args, output on the
// given writers, lifetime bounded by ctx. Tests call it directly and
// read the soak's measurements and gate verdicts from its results
// (both nil for -print-plan).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (*load.Result, []load.GateResult, error) {
	fs := flag.NewFlagSet("isampload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defGates := load.DefaultGates()
	var (
		addr      = fs.String("addr", "", "daemon base URL (e.g. http://127.0.0.1:8347); empty self-hosts one in-process")
		selfJ     = fs.Int("self-j", runtime.GOMAXPROCS(0), "self-hosted daemon worker-pool size")
		selfQueue = fs.Int("self-queue", 64, "self-hosted daemon queue depth")
		selfObs   = fs.String("self-obs", "spans", "self-hosted daemon observability mode (off, spans, full); spans feeds the queue-wait ledger gate")
		seed      = fs.Int64("seed", 1, "plan seed (ignored with -mix)")
		ops       = fs.Int("ops", 2000, "plan length in job operations (ignored with -mix)")
		mixPath   = fs.String("mix", "", "traffic-mix JSON file (default: the built-in DefaultMix)")
		duration  = fs.Duration("duration", 30*time.Second, "submission window; in-flight ops still drain after it")
		clients   = fs.Int("clients", 8, "concurrent HTTP client workers")
		printPlan = fs.Bool("print-plan", false, "print the expanded op sequence as JSON and exit")

		minTput      = fs.Float64("min-throughput", defGates.MinThroughputJobsPerSec, "gate: terminal jobs/sec floor (0 disables)")
		maxP99       = fs.Uint64("max-p99-ms", defGates.MaxP99Ms, "gate: accepted→terminal p99 ceiling in ms (0 disables)")
		maxCancelP99 = fs.Uint64("max-cancel-p99-ms", defGates.MaxCancelP99Ms, "gate: DELETE→terminal p99 ceiling in ms (0 disables)")
		maxQueueP99  = fs.Uint64("max-queue-wait-p99-ms", defGates.MaxQueueWaitP99Ms, "gate: ledger queue-wait p99 ceiling in ms (0 disables; needs an obs-enabled daemon)")
		maxLeaked    = fs.Int("max-leaked", defGates.MaxLeakedGoroutines, "gate: post-drain goroutine growth ceiling (0 = zero-leak, enforced)")
		minSubmitted = fs.Int64("min-submitted", defGates.MinSubmitted, "gate: accepted-op floor so other gates cannot pass vacuously (0 disables)")
		quiet        = fs.Bool("q", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}

	mix := load.DefaultMix(*seed, *ops)
	if *mixPath != "" {
		f, err := os.Open(*mixPath)
		if err != nil {
			return nil, nil, err
		}
		m, err := load.ReadMix(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", *mixPath, err)
		}
		mix = m
	} else if err := mix.Validate(); err != nil {
		return nil, nil, err
	}
	plan, err := load.Plan(mix)
	if err != nil {
		return nil, nil, err
	}
	hash := load.PlanHash(plan)
	if *printPlan {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stdout, "// plan_hash %s\n", hash)
		return nil, nil, nil
	}

	logf := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(stderr, "isampload: "+format+"\n", a...)
		}
	}

	baseURL := *addr
	if baseURL == "" {
		mode, merr := obs.ParseMode(*selfObs)
		if merr != nil {
			return nil, nil, fmt.Errorf("-self-obs: %w", merr)
		}
		var shutdown func()
		baseURL, shutdown, err = selfHost(*selfJ, *selfQueue, mode)
		if err != nil {
			return nil, nil, err
		}
		defer shutdown()
		logf("self-hosted daemon on %s (%d workers, queue %d, obs %s)", baseURL, *selfJ, *selfQueue, mode)
	}

	logf("soak: %d planned ops (hash %s), %d clients, %s window",
		len(plan), hash[:12], *clients, *duration)
	res, err := load.Run(ctx, plan, load.Options{
		BaseURL:  baseURL,
		Clients:  *clients,
		Duration: *duration,
		Logf:     logf,
	})
	if err != nil {
		return nil, nil, err
	}

	gates := load.Gates{
		MinThroughputJobsPerSec: *minTput,
		MaxP99Ms:                *maxP99,
		MaxCancelP99Ms:          *maxCancelP99,
		MaxQueueWaitP99Ms:       *maxQueueP99,
		MaxLeakedGoroutines:     *maxLeaked,
		MinSubmitted:            *minSubmitted,
	}
	verdicts := gates.Check(res)

	fmt.Fprintf(stdout, "soak: plan %s, %d submitted, %d done, %d cancelled (+%d races), %d failed, %d×429, %.1f jobs/s, p50/p99 %d/%dms, cancel p99 %dms, queue max %d, leaked goroutines %d\n",
		hash, res.Counts.Submitted, res.Counts.Done,
		res.Counts.CancelRequested+res.Counts.Cancelled, res.Counts.CancelRaces,
		res.Counts.Failed, res.Counts.Rejected429, res.ThroughputJobsPerSec,
		res.JobLatencyMs.P50, res.JobLatencyMs.P99, res.CancelLatencyMs.P99,
		res.QueueDepthMax, res.LeakedGoroutines)
	if res.LedgerOps > 0 {
		fmt.Fprintf(stdout, "ledgers: %d ops, queue-wait p50/p99 %d/%dµs, vm-run stage p50/p99 %d/%dµs\n",
			res.LedgerOps, res.QueueWaitUs.P50, res.QueueWaitUs.P99,
			res.RunStageUs.P50, res.RunStageUs.P99)
	}
	for _, g := range verdicts {
		mark := "ok"
		if !g.OK {
			mark = "VIOLATED"
		}
		fmt.Fprintf(stdout, "gate %-24s %s %g\t(got %g)\t%s\n", g.Name, g.Op, g.Bound, g.Value, mark)
	}
	if !load.AllOK(verdicts) {
		return res, verdicts, errGates
	}
	fmt.Fprintln(stdout, "all gates passed")
	return res, verdicts, nil
}

// selfHost boots an in-process service.Server on an ephemeral port and
// returns its base URL plus a shutdown that drains the daemon and
// closes the listener. The daemon runs with the requested observability
// mode so every terminal job carries an attribution ledger for the
// queue-wait gate (off disables that, and the gate with it).
func selfHost(workers, queue int, mode obs.Mode) (string, func(), error) {
	s := service.New(service.Config{
		Workers:    workers,
		QueueDepth: queue,
		Obs:        obs.NewState(obs.Options{Mode: mode}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	shutdown := func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(dctx)
		srv.Shutdown(dctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
