package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"instrsample/internal/obs"
	"instrsample/internal/telemetry"
)

// Options configures a soak run. Zero values get sensible defaults.
type Options struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// Clients is the number of concurrent submitters (default 4).
	Clients int
	// Duration is the submission window; ops still in flight when it
	// expires are driven to a terminal state, but no new ops start.
	Duration time.Duration
	// MetricsSampleInterval is the /metrics queue-depth scrape cadence
	// (default 200ms).
	MetricsSampleInterval time.Duration
	// SettleTimeout bounds the post-drain wait for the daemon to return
	// to its baseline goroutine count (default 15s).
	SettleTimeout time.Duration
	// SlowReaderDelay is the per-chunk throttle of a slow SSE reader
	// (default 15ms).
	SlowReaderDelay time.Duration
	// RetryDelay is the pause before resubmitting after a 429
	// (default 10ms).
	RetryDelay time.Duration
	// OpTimeout bounds one op's drive-to-terminal wait (default 60s);
	// a job stuck non-terminal counts as failed and trips the gates
	// instead of hanging the soak.
	OpTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Clients < 1 {
		o.Clients = 4
	}
	if o.Duration <= 0 {
		o.Duration = 30 * time.Second
	}
	if o.MetricsSampleInterval <= 0 {
		o.MetricsSampleInterval = 200 * time.Millisecond
	}
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 15 * time.Second
	}
	if o.SlowReaderDelay <= 0 {
		o.SlowReaderDelay = 15 * time.Millisecond
	}
	if o.RetryDelay <= 0 {
		o.RetryDelay = 10 * time.Millisecond
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 60 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * o.Clients,
			MaxIdleConnsPerHost: 4 * o.Clients,
		}}
	}
	return o
}

// Counts are the per-outcome op totals of a run.
type Counts struct {
	// Submitted ops were accepted by the daemon (202).
	Submitted int64 `json:"submitted"`
	// Done/Failed/Cancelled are terminal states observed for non-cancel
	// ops (Done includes memo/cache-served reuse ops).
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// CancelRequested counts cancel ops whose DELETE resolved the job
	// cancelled; CancelRaces are cancel ops that finished on their own
	// before the DELETE landed (possible, not an error).
	CancelRequested int64 `json:"cancel_requested"`
	CancelRaces     int64 `json:"cancel_races"`
	// Rejected429 counts backpressure pushbacks; Retries the follow-up
	// resubmissions (every 429 is retried until the window closes).
	Rejected429 int64 `json:"rejected_429"`
	Retries     int64 `json:"retries"`
	// Abandoned ops never got accepted before the window closed.
	Abandoned int64 `json:"abandoned"`
	// SSEStreams/SSESlowStreams/SSERows account the event subscribers.
	SSEStreams     int64 `json:"sse_streams"`
	SSESlowStreams int64 `json:"sse_slow_streams"`
	SSERows        int64 `json:"sse_rows"`
	// TransportErrors are client-side HTTP failures (first few are kept
	// in Result.Errors).
	TransportErrors int64 `json:"transport_errors"`
}

// Health is the daemon's /healthz introspection document — the fields
// service.Server.Introspect exposes, read over HTTP so external daemons
// get the same leak checks as in-process ones.
type Health struct {
	Status      string `json:"status"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	Terminal    int    `json:"terminal"`
	Subscribers int    `json:"subscribers"`
	Goroutines  int    `json:"goroutines"`
	HeapBytes   uint64 `json:"heap_bytes"`
}

// Result is everything a run measured; Gates.Check and the isampload
// summary consume it.
type Result struct {
	Counts Counts `json:"counts"`
	// ThroughputJobsPerSec is terminal ops per second of submission
	// window.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	// JobLatencyMs summarizes accepted→terminal latency of non-cancel
	// ops; CancelLatencyMs the DELETE→terminal latency of cancel ops.
	JobLatencyMs    telemetry.Summary `json:"job_latency_ms"`
	CancelLatencyMs telemetry.Summary `json:"cancel_latency_ms"`
	// LedgerOps counts terminal ops whose job view carried an attribution
	// ledger (daemon running with -obs spans/full); QueueWaitUs and
	// RunStageUs summarize those ledgers' queue-wait and vm-run stage
	// durations — server-side wall-clock attribution, immune to the
	// harness's own polling cadence. All zero against an obs-off daemon.
	LedgerOps   int64             `json:"ledger_ops"`
	QueueWaitUs telemetry.Summary `json:"queue_wait_us"`
	RunStageUs  telemetry.Summary `json:"run_stage_us"`
	// QueueDepthMax is the peak of the daemon's /metrics queue_depth
	// gauge, scraped during the run.
	QueueDepthMax int64 `json:"queue_depth_max"`
	// Baseline/AfterDrain are the pre-load and post-drain health
	// snapshots; LeakedGoroutines = AfterDrain - Baseline goroutines
	// (the leak gate wants 0 — the settle loop retries until the
	// timeout, so transient scheduler noise does not trip it).
	Baseline         Health `json:"baseline"`
	AfterDrain       Health `json:"after_drain"`
	LeakedGoroutines int    `json:"leaked_goroutines"`
	// Errors holds the first few transport-error strings for triage.
	Errors []string `json:"errors,omitempty"`
}

// runner is the shared state of one Run.
type runner struct {
	opt  Options
	ops  []Op
	reg  *telemetry.Registry
	cnt  Counts
	errs struct {
		sync.Mutex
		list []string
	}
	start     time.Time
	deadline  time.Time
	queueMax  atomic.Int64
	ledgerOps atomic.Int64
	sse       sync.WaitGroup
}

func (r *runner) logf(format string, args ...any) {
	if r.opt.Logf != nil {
		r.opt.Logf(format, args...)
	}
}

func (r *runner) addErr(err error) {
	atomic.AddInt64(&r.cnt.TransportErrors, 1)
	r.errs.Lock()
	if len(r.errs.list) < 8 {
		r.errs.list = append(r.errs.list, err.Error())
	}
	r.errs.Unlock()
}

// Run drives the planned ops against a live daemon and measures the
// outcome. It returns an error only when the daemon is unreachable or
// the context dies; measured badness (failed jobs, leaks, slow p99s) is
// the gates' business, not Run's.
func Run(ctx context.Context, ops []Op, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	r := &runner{opt: opt, ops: ops, reg: telemetry.NewRegistry()}

	baseline, err := r.health(ctx)
	if err != nil {
		return nil, fmt.Errorf("daemon not reachable at %s: %w", opt.BaseURL, err)
	}
	r.start = time.Now()
	r.deadline = r.start.Add(opt.Duration)

	samplerStop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() { defer samplerDone.Done(); r.sampleQueueDepth(ctx, samplerStop) }()

	var next atomic.Int64
	var workers sync.WaitGroup
	for c := 0; c < opt.Clients; c++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.ops) || time.Now().After(r.deadline) || ctx.Err() != nil {
					return
				}
				r.executeOp(ctx, r.ops[i])
			}
		}()
	}
	workers.Wait()
	r.sse.Wait()
	close(samplerStop)
	samplerDone.Wait()
	elapsed := time.Since(r.start)

	opt.Client.CloseIdleConnections()
	after := r.settle(ctx, baseline)

	res := &Result{
		Counts:           r.cnt,
		JobLatencyMs:     r.reg.Histogram("load.job_latency_ms", nil).Summarize(),
		CancelLatencyMs:  r.reg.Histogram("load.cancel_latency_ms", nil).Summarize(),
		LedgerOps:        r.ledgerOps.Load(),
		QueueWaitUs:      r.reg.Histogram("load.queue_wait_us", nil).Summarize(),
		RunStageUs:       r.reg.Histogram("load.run_stage_us", nil).Summarize(),
		QueueDepthMax:    r.queueMax.Load(),
		Baseline:         baseline,
		AfterDrain:       after,
		LeakedGoroutines: after.Goroutines - baseline.Goroutines,
		Errors:           r.errs.list,
	}
	if res.LeakedGoroutines < 0 {
		res.LeakedGoroutines = 0
	}
	terminal := r.cnt.Done + r.cnt.Failed + r.cnt.Cancelled + r.cnt.CancelRequested + r.cnt.CancelRaces
	if s := elapsed.Seconds(); s > 0 {
		res.ThroughputJobsPerSec = float64(terminal) / s
	}
	return res, nil
}

// executeOp runs one planned op to a terminal observation.
func (r *runner) executeOp(ctx context.Context, op Op) {
	id, ok := r.submit(ctx, op)
	if !ok {
		return
	}
	accepted := time.Now()
	if op.Subscribe {
		r.sse.Add(1)
		go func() {
			defer r.sse.Done()
			r.streamEvents(ctx, id, op.SlowReader)
		}()
	}
	octx, cancel := context.WithTimeout(ctx, r.opt.OpTimeout)
	defer cancel()
	if op.Cancel {
		r.cancelOp(octx, id, op)
		return
	}
	st := r.pollTerminal(octx, id)
	r.reg.Histogram("load.job_latency_ms", telemetry.ExpBuckets(1, 20)).
		Observe(uint64(time.Since(accepted).Milliseconds()))
	switch st {
	case "done":
		atomic.AddInt64(&r.cnt.Done, 1)
	case "cancelled": // daemon drain got it; count honestly
		atomic.AddInt64(&r.cnt.Cancelled, 1)
	default:
		atomic.AddInt64(&r.cnt.Failed, 1)
	}
}

// submit POSTs the op's spec, retrying 429 pushback until the window
// closes. The bool is false when the op never got accepted.
func (r *runner) submit(ctx context.Context, op Op) (string, bool) {
	body, err := json.Marshal(op.Spec)
	if err != nil {
		r.addErr(err)
		return "", false
	}
	for {
		if ctx.Err() != nil || time.Now().After(r.deadline) {
			atomic.AddInt64(&r.cnt.Abandoned, 1)
			return "", false
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			r.opt.BaseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			r.addErr(err)
			return "", false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.opt.Client.Do(req)
		if err != nil {
			r.addErr(err)
			atomic.AddInt64(&r.cnt.Abandoned, 1)
			return "", false
		}
		var rb struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&rb)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			atomic.AddInt64(&r.cnt.Submitted, 1)
			return rb.ID, true
		case http.StatusTooManyRequests:
			atomic.AddInt64(&r.cnt.Rejected429, 1)
			atomic.AddInt64(&r.cnt.Retries, 1)
			select {
			case <-ctx.Done():
			case <-time.After(r.opt.RetryDelay):
			}
		case http.StatusServiceUnavailable: // draining
			atomic.AddInt64(&r.cnt.Abandoned, 1)
			return "", false
		default:
			if decErr != nil {
				rb.Error = decErr.Error()
			}
			r.addErr(fmt.Errorf("submit: status %d (%s)", resp.StatusCode, rb.Error))
			atomic.AddInt64(&r.cnt.Abandoned, 1)
			return "", false
		}
	}
}

// cancelOp waits the planned delay, DELETEs the job, and measures
// DELETE→terminal latency.
func (r *runner) cancelOp(ctx context.Context, id string, op Op) {
	select {
	case <-ctx.Done():
		return
	case <-time.After(time.Duration(op.CancelAfterMs) * time.Millisecond):
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		r.opt.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		r.addErr(err)
		return
	}
	resp, err := r.opt.Client.Do(req)
	if err != nil {
		r.addErr(err)
		return
	}
	resp.Body.Close()
	st := r.pollTerminal(ctx, id)
	r.reg.Histogram("load.cancel_latency_ms", telemetry.ExpBuckets(1, 16)).
		Observe(uint64(time.Since(t0).Milliseconds()))
	if st == "cancelled" {
		atomic.AddInt64(&r.cnt.CancelRequested, 1)
	} else {
		atomic.AddInt64(&r.cnt.CancelRaces, 1)
	}
}

// pollTerminal polls the job until it reaches a terminal state, with a
// small exponential backoff so fast jobs resolve in one or two reads and
// slow ones don't get hammered. When the daemon runs with observability
// on, the terminal view carries the job's attribution ledger; it is
// recorded into the run's queue-wait / run-stage histograms.
func (r *runner) pollTerminal(ctx context.Context, id string) string {
	delay := 2 * time.Millisecond
	for {
		if ctx.Err() != nil {
			return ""
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			r.opt.BaseURL+"/v1/jobs/"+id, nil)
		if err != nil {
			r.addErr(err)
			return ""
		}
		resp, err := r.opt.Client.Do(req)
		if err != nil {
			r.addErr(err)
			return ""
		}
		var v struct {
			Status string      `json:"status"`
			Ledger *obs.Ledger `json:"ledger"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			r.addErr(err)
			return ""
		}
		switch v.Status {
		case "done", "failed", "cancelled":
			r.recordLedger(v.Ledger)
			return v.Status
		}
		select {
		case <-ctx.Done():
			return ""
		case <-time.After(delay):
		}
		if delay < 32*time.Millisecond {
			delay *= 2
		}
	}
}

// streamEvents consumes the job's SSE stream until the done event. A
// slow reader throttles between reads, forcing the daemon's flush path
// to absorb backpressure.
func (r *runner) streamEvents(ctx context.Context, id string, slow bool) {
	atomic.AddInt64(&r.cnt.SSEStreams, 1)
	if slow {
		atomic.AddInt64(&r.cnt.SSESlowStreams, 1)
	}
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		r.opt.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		r.addErr(err)
		return
	}
	resp, err := r.opt.Client.Do(req)
	if err != nil {
		r.addErr(err)
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "event: metrics" {
			atomic.AddInt64(&r.cnt.SSERows, 1)
		}
		if line == "event: done" {
			return
		}
		lines++
		if slow && lines%8 == 0 {
			select {
			case <-sctx.Done():
				return
			case <-time.After(r.opt.SlowReaderDelay):
			}
		}
	}
}

// recordLedger folds one terminal job's attribution ledger into the
// run's per-stage histograms. Nil (obs-off daemon) records nothing.
func (r *runner) recordLedger(l *obs.Ledger) {
	if l == nil {
		return
	}
	r.ledgerOps.Add(1)
	if row, ok := l.Row(obs.StageQueueWait); ok {
		r.reg.Histogram("load.queue_wait_us", telemetry.ExpBuckets(1, 26)).
			Observe(uint64(row.Ns / 1e3))
	}
	if row, ok := l.Row(obs.StageVMRun); ok {
		r.reg.Histogram("load.run_stage_us", telemetry.ExpBuckets(1, 26)).
			Observe(uint64(row.Ns / 1e3))
	}
}

var queueDepthRe = regexp.MustCompile(`(?m)^queue_depth (-?\d+)$`)

// sampleQueueDepth scrapes the daemon's Prometheus gauge on a cadence.
func (r *runner) sampleQueueDepth(ctx context.Context, stop <-chan struct{}) {
	tick := time.NewTicker(r.opt.MetricsSampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opt.BaseURL+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := r.opt.Client.Do(req)
		if err != nil {
			continue
		}
		buf := new(bytes.Buffer)
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if m := queueDepthRe.FindSubmatch(buf.Bytes()); m != nil {
			if d, err := strconv.ParseInt(string(m[1]), 10, 64); err == nil {
				for {
					cur := r.queueMax.Load()
					if d <= cur || r.queueMax.CompareAndSwap(cur, d) {
						break
					}
				}
			}
		}
	}
}

// health reads the daemon's /healthz introspection document.
func (r *runner) health(ctx context.Context) (Health, error) {
	var h Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opt.BaseURL+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := r.opt.Client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, err
	}
	return h, nil
}

// settle waits for the daemon to quiesce after the load stops: no
// queued/running jobs, no subscribers, and a goroutine count back at the
// pre-load baseline. It polls until SettleTimeout and returns the last
// snapshot — a genuine leak therefore shows up as AfterDrain.Goroutines
// above baseline no matter how long the settle waited. In self-hosted
// runs (daemon in this process) the GC nudge also makes the heap
// comparison meaningful.
func (r *runner) settle(ctx context.Context, baseline Health) Health {
	deadline := time.Now().Add(r.opt.SettleTimeout)
	var last Health
	for {
		runtime.GC()
		r.opt.Client.CloseIdleConnections()
		h, err := r.health(ctx)
		if err == nil {
			last = h
			if h.Queued == 0 && h.Running == 0 && h.Subscribers == 0 &&
				h.Goroutines <= baseline.Goroutines {
				return last
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			r.logf("settle timeout: %+v (baseline %+v)", last, baseline)
			return last
		}
		select {
		case <-ctx.Done():
			return last
		case <-time.After(100 * time.Millisecond):
		}
	}
}
