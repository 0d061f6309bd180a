package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/telemetry"
)

// Daemon metric names, exposed at GET /metrics in Prometheus text
// format (dots become underscores there).
const (
	MetricJobsAccepted  = "jobs.accepted"   // counter: jobs admitted to the queue
	MetricJobsRejected  = "jobs.rejected"   // counter: jobs refused with 429 (queue full)
	MetricJobsCompleted = "jobs.completed"  // counter: jobs finished successfully
	MetricJobsFailed    = "jobs.failed"     // counter: jobs finished in error (timeouts included)
	MetricJobsCancelled = "jobs.cancelled"  // counter: jobs cancelled (DELETE or drain)
	MetricQueueDepth    = "queue.depth"     // gauge: jobs waiting for a worker
	MetricJobDuration   = "job.duration_ms" // histogram: accepted-to-terminal latency
)

// MetricStageUs names the per-stage duration histogram for one
// lifecycle stage ("stage.<name>.duration_us"), fed from each finished
// job's attribution ledger when the obs mode is not off.
func MetricStageUs(stage obs.Stage) string {
	return "stage." + stage.String() + ".duration_us"
}

// Config configures a Server. The zero value is usable: 1 worker, a
// 64-deep queue, no cache, a private registry.
type Config struct {
	// Workers is the worker-pool size — the number of jobs running
	// concurrently (minimum 1). Local pool only.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs.
	// A full queue rejects submissions with 429 + Retry-After; the
	// daemon never buffers without bound (default 64).
	QueueDepth int
	// RetainJobs bounds how many terminal jobs stay queryable; the
	// oldest are evicted first (default 1024).
	RetainJobs int
	// Cache, when non-nil, is the experiment engine's build-ID-keyed
	// on-disk result cache; identical jobs then complete near-instantly.
	// It is also the store behind /v1/cas. Local pool only.
	Cache *experiment.Cache
	// Registry receives the daemon's metrics (nil = private registry).
	Registry *telemetry.Registry
	// MaxBodyBytes bounds a POST or PUT body (default 2 MiB).
	MaxBodyBytes int64
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives structured leveled log records for
	// every job state change, each correlated with its job ID ("job"
	// attribute). Independent of Logf; set both to get both.
	Logger *slog.Logger
	// Obs is the daemon's observability state (internal/obs): the
	// runtime-togglable span/ledger mode and the shared span ring
	// (DESIGN.md §14). Nil gets a fresh state in obs.ModeOff.
	Obs *obs.State
	// TraceDir, when non-empty, receives one merged Chrome trace JSON
	// file per finished traced job (<id>.trace.json) — the -trace-dir
	// flag of isampd.
	TraceDir string
	// Now, when non-nil, replaces time.Now for every job timestamp and
	// the job-duration histogram — the deterministic-clock test hook the
	// load harness and the service tests use (DESIGN.md §11). It does NOT
	// affect job timeouts (timeout_ms still arms a real wall-clock
	// context deadline).
	Now func() time.Time
}

// WithDefaults returns the config with every unset field given its
// default. New applies it; the fleet coordinator applies it first to
// share the registry and clock with the front door it builds.
func (c Config) WithDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.RetainJobs < 1 {
		c.RetainJobs = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 2 << 20
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Obs == nil {
		c.Obs = obs.NewState(obs.Options{})
	}
	return c
}

// Executor runs the jobs the front door accepts (DESIGN.md §10). isampd
// runs them on a local worker pool (New); isampfleet dispatches them to
// a fleet of isampd workers (internal/fabric). The front door owns
// everything a client sees — IDs, the job table, every HTTP handler,
// the ledger and terminal metrics, drain — and an executor resolves
// each job it accepts by calling Job.Finish exactly when the outcome is
// known.
type Executor interface {
	// Submit takes an accepted job. It must not block; the only error
	// it returns is *QueueFullError, which the front door answers with
	// 429. On success the executor owns the job until it finishes it.
	Submit(j *Job) error
	// Cancel acts on an operator DELETE of a live job, after the job's
	// context has fired.
	Cancel(j *Job)
	// Abort resolves every job still queued or running. It is the
	// forced half of Shutdown, called after every job context fired.
	Abort()
	// Close stops the executor's goroutines once every job is terminal.
	Close()
	// Health adds executor fields to the /healthz document.
	Health(doc map[string]any)
	// CAS returns the store served at /v1/cas (nil answers 404) and the
	// counter an integrity-rejected PUT is booked under.
	CAS() (store *experiment.Cache, rejectMetric string)
}

// QueueFullError is Submit's pushback: the executor's queue is Depth
// deep, and RetryAfter (seconds) is its estimate of the time to drain.
type QueueFullError struct {
	Depth      int
	RetryAfter int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("queue full (%d deep); retry later", e.Depth)
}

// Server is the job front door: the HTTP surface (Handler), the job
// table and the drain sequence, over an Executor that runs the jobs. It
// is independent of any particular http.Server so tests can drive it
// with httptest.
type Server struct {
	cfg  Config
	exec Executor
	reg  *telemetry.Registry
	mux  *http.ServeMux
	now  func() time.Time

	baseCtx     context.Context
	baseCancel  context.CancelFunc
	subscribers atomic.Int64 // open SSE streams

	mu       sync.Mutex
	draining bool
	seq      uint64
	jobs     map[string]*Job
	order    []string // insertion order, for retention eviction
	inflight sync.WaitGroup
}

// New builds the isampd daemon core: the front door over a local
// worker pool, which starts immediately.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.exec = newPool(s)
	return s
}

// NewWithExecutor builds a front door over another executor — the fleet
// coordinator's remote dispatch.
func NewWithExecutor(cfg Config, exec Executor) *Server {
	s := newServer(cfg)
	s.exec = exec
	return s
}

func newServer(cfg Config) *Server {
	cfg = cfg.WithDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		mux:        http.NewServeMux(),
		now:        cfg.Now,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/obs", s.handleObsGet)
	s.mux.HandleFunc("PUT /v1/obs", s.handleObsSet)
	s.mux.HandleFunc("GET /v1/cas/{addr}", s.handleCASGet)
	s.mux.HandleFunc("PUT /v1/cas/{addr}", s.handleCASPut)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the daemon's metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// slogAt emits one structured record through the configured Logger;
// callers pass the job ID as a "job" attribute so every line correlates.
func (s *Server) slogAt(level slog.Level, msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

// record books one job's outcome (Job.Finish calls it before the
// terminal status becomes visible): the attribution ledger feeds the
// per-stage histograms, the merged Chrome trace is dumped when TraceDir
// is set, and the terminal counter and duration histogram are bumped.
func (s *Server) record(j *Job, st JobStatus, finished time.Time) {
	if l := j.trace.Ledger(); l != nil {
		for _, row := range l.Rows {
			s.reg.Histogram(MetricStageUs(row.Stage), telemetry.ExpBuckets(1, 24)).
				Observe(uint64(row.Ns / 1e3))
		}
		if s.cfg.TraceDir != "" {
			s.dumpTrace(j)
		}
	}
	switch st {
	case StatusDone:
		s.reg.Counter(MetricJobsCompleted).Inc()
	case StatusCancelled:
		s.reg.Counter(MetricJobsCancelled).Inc()
	default:
		s.reg.Counter(MetricJobsFailed).Inc()
	}
	s.reg.Histogram(MetricJobDuration, telemetry.ExpBuckets(1, 16)).
		Observe(uint64(finished.Sub(j.created).Milliseconds()))
	s.logf("job %s %s", j.id, st)
	level := slog.LevelInfo
	if st != StatusDone {
		level = slog.LevelWarn
	}
	s.slogAt(level, "job finished", "job", j.id, "status", string(st))
}

// dumpTrace writes the job's merged Chrome trace to TraceDir.
func (s *Server) dumpTrace(j *Job) {
	path := filepath.Join(s.cfg.TraceDir, j.id+".trace.json")
	f, err := os.Create(path)
	if err == nil {
		err = obs.WriteJobChromeTrace(f, j.trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.logf("job %s trace dump failed: %v", j.id, err)
		s.slogAt(slog.LevelWarn, "trace dump failed", "job", j.id, "path", path, "err", err)
	}
}

// Shutdown drains the daemon (DESIGN.md §10): new submissions are
// refused immediately; queued and running jobs get until ctx's deadline
// to finish on their own; past the deadline every remaining job context
// is cancelled (stopping running VMs at their next observation point)
// and the executor resolves what is left as cancelled. Shutdown returns
// once every job is terminal and the executor has stopped. ctx.Err() is
// returned when the hard-cancel path was taken, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.baseCancel()
		s.exec.Abort()
		<-done
	}
	s.baseCancel()
	s.exec.Close()
	return forced
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes exactly one JSON value of at most MaxBodyBytes into
// v, rejecting unknown fields and trailing data. On failure it has
// already answered (413 or 400) and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	if dec.More() {
		writeErr(w, http.StatusBadRequest, "invalid request body: trailing data after the JSON value")
		return false
	}
	return true
}

// handleSubmit admits a job: validate, register, hand to the executor —
// or push back. Backpressure is non-negotiable: Submit never blocks; a
// full queue answers 429 with Retry-After so clients back off instead
// of the daemon buffering without bound.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The span chain opens in StageAccept before the body is read, so the
	// accept stage covers request decoding. A rejected request abandons
	// the unnamed chain, which records nothing (obs.JobTrace.SetJob).
	tr := s.cfg.Obs.StartJob()
	var spec JobSpec
	if !s.decodeBody(w, r, &spec) {
		return
	}
	tr.Begin(obs.StageValidate, "")
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), spec, s.baseCtx, s.now)
	j.trace, j.srv = tr, s
	s.inflight.Add(1)
	if err := s.exec.Submit(j); err != nil {
		s.seq-- // id not used
		s.inflight.Done()
		s.mu.Unlock()
		j.cancel()
		s.reg.Counter(MetricJobsRejected).Inc()
		retry := 1
		var full *QueueFullError
		if errors.As(err, &full) {
			retry = full.RetryAfter
		}
		s.slogAt(slog.LevelWarn, "job rejected", "reason", err.Error())
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	// The drain accounting waits on done in its own goroutine rather than
	// in Job.Finish. Spawning it here is also a scheduling choice: it
	// takes this P's run-next slot, so a pool worker the Submit just
	// woke lands in the run queue, where an idle P steals it, instead of
	// taking over this P once the handler returns and delaying the
	// client's follow-up request (SSE open, soak-mix on 2 CPUs: 55 µs
	// median this way, 2.9 ms the other).
	go func() { <-j.done; s.inflight.Done() }()
	tr.SetJob(j.id)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()
	s.reg.Counter(MetricJobsAccepted).Inc()
	s.logf("job %s accepted (%s)", j.id, spec.describe())
	s.slogAt(slog.LevelInfo, "job accepted", "job", j.id, "spec", spec.describe())
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": string(j.Status())})
}

// evictLocked drops the oldest terminal jobs beyond the retention cap.
// Non-terminal jobs are never evicted. Caller holds s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.RetainJobs && len(s.order) > 0 {
		id := s.order[0]
		j, ok := s.jobs[id]
		if ok && !j.Status().Terminal() {
			return // oldest still live; nothing older to drop
		}
		s.order = s.order[1:]
		delete(s.jobs, id)
	}
}

// lookup finds the request's {id} job, answering 404 when it is unknown.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.doc())
	}
}

// handleTrace serves the job's merged Chrome trace: its wall-clock span
// chain plus, for runs executed at obs=full, the VM's cycle-domain
// events aligned to wall time (DESIGN.md §14). Live jobs get the spans
// closed so far; the document is complete once the job is terminal.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j.trace == nil {
		writeErr(w, http.StatusNotFound, "no trace for job %q (obs mode was off at accept)", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteJobChromeTrace(w, j.trace) //nolint:errcheck // client went away
}

// obsView renders the observability state for GET/PUT /v1/obs.
func (s *Server) obsView() map[string]any {
	t := s.cfg.Obs.Tracer()
	return map[string]any{
		"mode":          s.cfg.Obs.Mode().String(),
		"ring_capacity": t.Cap(),
		"spans_total":   t.Total(),
		"spans_dropped": t.Drops(),
	}
}

func (s *Server) handleObsGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.obsView())
}

// handleObsSet switches the obs mode at runtime: {"mode":"off|spans|full"}.
// Jobs already carrying a span chain finish it; jobs accepted after the
// switch follow the new mode.
func (s *Server) handleObsSet(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Mode string `json:"mode"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	m, err := obs.ParseMode(req.Mode)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cfg.Obs.SetMode(m)
	s.logf("obs mode set to %s", m)
	s.slogAt(slog.LevelInfo, "obs mode changed", "mode", m.String())
	writeJSON(w, http.StatusOK, s.obsView())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j.requestCancel().Terminal() {
		// Nothing left to cancel.
		writeJSON(w, http.StatusConflict, map[string]string{"id": j.id, "status": string(j.Status())})
		return
	}
	s.exec.Cancel(j)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": string(j.Status())})
}

// Introspection is a point-in-time snapshot of the daemon's internal
// state: the job population by phase, the drain flag, and the process's
// goroutine/heap footprint. It is the drain-introspection test hook the
// load harness's leak gates consume (DESIGN.md §11): after a soak's jobs
// all reach a terminal state and its SSE clients disconnect, Queued and
// Running must be 0 and Goroutines must return to the pre-load baseline.
type Introspection struct {
	// Draining reports whether Shutdown has begun.
	Draining bool `json:"draining"`
	// Queued, Running and Terminal partition the retained job set.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Terminal int `json:"terminal"`
	// Subscribers counts open SSE event streams.
	Subscribers int `json:"subscribers"`
	// Goroutines is runtime.NumGoroutine() at snapshot time.
	Goroutines int `json:"goroutines"`
	// HeapBytes is runtime.MemStats.HeapAlloc at snapshot time.
	HeapBytes uint64 `json:"heap_bytes"`
}

// Introspect snapshots the daemon's internal state. Also served (merged
// into the health document) at GET /healthz, so out-of-process harnesses
// can run the same leak checks as in-process tests.
func (s *Server) Introspect() Introspection {
	s.mu.Lock()
	in := Introspection{Draining: s.draining}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		switch j.Status() {
		case StatusQueued:
			in.Queued++
		case StatusRunning:
			in.Running++
		default:
			in.Terminal++
		}
	}
	in.Subscribers = int(s.subscribers.Load())
	in.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	in.HeapBytes = ms.HeapAlloc
	return in
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	in := s.Introspect()
	status := "ok"
	if in.Draining {
		status = "draining"
	}
	doc := map[string]any{
		"status":      status,
		"jobs":        in.Queued + in.Running + in.Terminal,
		"queued":      in.Queued,
		"running":     in.Running,
		"terminal":    in.Terminal,
		"subscribers": in.Subscribers,
		"goroutines":  in.Goroutines,
		"heap_bytes":  in.HeapBytes,
		"build_id":    experiment.BuildID(),
	}
	doc["obs"] = s.cfg.Obs.Mode().String()
	s.exec.Health(doc)
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.reg) //nolint:errcheck // client went away
}

// handleEvents streams the job's telemetry metrics series as Server-Sent
// Events: one "columns" event when the column set freezes, one "metrics"
// event per captured row (at the job's events_interval cycle cadence),
// then a "ledger" event (traced jobs) and a final "done" event carrying
// the terminal status. Jobs resolved from the memo table or a cache
// stream only the terminal events — their VM never ran for them, so
// there are no rows (DESIGN.md §10). A fleet job's rows are its worker's,
// relayed by the coordinator.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.subscribers.Add(1)
	defer s.subscribers.Add(-1)

	sent := 0
	sentCols := false
	flush := func() {
		cols, rows := j.EventsSince(sent)
		if !sentCols && cols != nil {
			data, _ := json.Marshal(cols)
			fmt.Fprintf(w, "event: columns\ndata: %s\n\n", data)
			sentCols = true
		}
		for _, row := range rows {
			data, err := json.Marshal(row)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: metrics\ndata: %s\n\n", data)
		}
		sent += len(rows)
		fl.Flush()
	}
	for {
		wake := j.eventWake()
		flush()
		select {
		case <-wake:
		case <-j.done:
			flush() // rows published between the last flush and finish
			// The span chain closes before done does (Job.Finish), so the
			// ledger streamed here is final: stage sums equal latency.
			if l := j.trace.Ledger(); l != nil {
				data, _ := json.Marshal(l)
				fmt.Fprintf(w, "event: ledger\ndata: %s\n\n", data)
			}
			fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", j.Status())
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
