package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/profile"
	"instrsample/internal/vm"
)

// pool is isampd's Executor: a bounded queue in front of a worker pool
// layered on the experiment engine (its memo table and on-disk cache).
type pool struct {
	s       *Server
	eng     *experiment.Engine
	queue   chan *Job
	workers sync.WaitGroup
	drain   DrainEstimator
}

// newPool builds the local executor for s and starts its workers.
func newPool(s *Server) *pool {
	p := &pool{
		s:     s,
		eng:   experiment.NewEngine(s.cfg.Workers, s.cfg.Cache),
		queue: make(chan *Job, s.cfg.QueueDepth),
	}
	p.eng.AttachMetrics(s.reg)
	for i := 0; i < s.cfg.Workers; i++ {
		p.workers.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues the job. The send never blocks: a full queue is
// pushed back to the client with a Retry-After proportional to the
// observed drain rate.
func (p *pool) Submit(j *Job) error {
	// queue-wait opens before the send so a worker that picks the job
	// up at once cannot open a later stage first.
	j.trace.Begin(obs.StageQueueWait, "")
	select {
	case p.queue <- j:
		p.s.reg.Gauge(MetricQueueDepth).Add(1)
		return nil
	default:
		depth := cap(p.queue)
		return &QueueFullError{Depth: depth, RetryAfter: p.drain.RetryAfter(depth, p.s.now())}
	}
}

// Cancel resolves a job cancelled while still queued; a running job
// stops on its own, at the next observation point after its context
// fired, and its worker resolves it.
func (p *pool) Cancel(j *Job) {
	if j.Status() == StatusQueued {
		j.Finish(StatusCancelled, "cancelled before start", nil)
	}
}

// Abort marks every job still sitting in the queue cancelled, so a
// forced shutdown cannot strand accepted jobs in a non-terminal state.
// Running jobs stop through their (already cancelled) contexts.
func (p *pool) Abort() {
	for {
		select {
		case j := <-p.queue:
			p.s.reg.Gauge(MetricQueueDepth).Add(-1)
			j.Finish(StatusCancelled, "server shutting down", nil)
		default:
			return
		}
	}
}

// Close waits for the workers, which exit once the server's base
// context is cancelled.
func (p *pool) Close() { p.workers.Wait() }

// Health adds nothing to the single-daemon health document.
func (p *pool) Health(map[string]any) {}

// CAS serves the daemon's own result cache.
func (p *pool) CAS() (*experiment.Cache, string) { return p.s.cfg.Cache, MetricCASRejected }

// worker pulls jobs from the queue until shutdown.
func (p *pool) worker() {
	defer p.workers.Done()
	for {
		select {
		case j := <-p.queue:
			p.s.reg.Gauge(MetricQueueDepth).Add(-1)
			p.drain.Record(p.s.now())
			p.runJob(j)
		case <-p.s.baseCtx.Done():
			return
		}
	}
}

// runJob executes one job through the experiment engine and resolves its
// terminal state.
func (p *pool) runJob(j *Job) {
	if !j.Start() {
		return // cancelled while queued; already terminal
	}
	s := p.s
	s.logf("job %s running (%s)", j.id, j.spec.describe())
	s.slogAt(slog.LevelInfo, "job running", "job", j.id, "spec", j.spec.describe())
	// The VM-trace decision is read at pickup: toggling to full applies to
	// jobs whose run starts after the toggle, and only jobs that carry a
	// span chain (mode was not off at accept) can attach one.
	full := j.trace != nil && s.cfg.Obs.Mode() == obs.ModeFull
	cells := []experiment.Cell{jobCell(j.spec, j, full)}
	if j.spec.Overlap {
		cells = append(cells, jobCell(j.spec.overlapSpec(), nil, false))
	}
	res, err := p.eng.DoContext(j.ctx, experiment.Config{Artifact: "service", Engine: p.eng, Owner: j.id}, cells)
	if err != nil {
		st, msg := classify(j, err)
		j.Finish(st, msg, nil)
		return
	}
	var ref *experiment.CellResult
	if len(res) > 1 {
		ref = res[1]
	}
	data, err := json.Marshal(buildResult(j.spec, res[0], ref))
	if err != nil {
		j.Finish(StatusFailed, fmt.Sprintf("encode result: %v", err), nil)
		return
	}
	j.Finish(StatusDone, "", data)
}

// classify maps a cell error to the job's terminal state: an operator
// DELETE (or daemon drain) is cancelled; a deadline is failed — the job
// ran out of its own budget; anything else is failed with the cause.
func classify(j *Job, err error) (JobStatus, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return StatusFailed, fmt.Sprintf("timeout after %dms", j.spec.TimeoutMs)
	case j.cancelRequested():
		return StatusCancelled, "cancelled"
	case errors.Is(err, context.Canceled) || vm.IsCancelled(err):
		return StatusCancelled, "cancelled: " + err.Error()
	default:
		return StatusFailed, err.Error()
	}
}

// buildResult assembles the job's terminal payload from the engine
// cell(s).
func buildResult(spec JobSpec, main, ref *experiment.CellResult) *JobResult {
	res := &JobResult{
		Return:             main.Return,
		Output:             main.Output,
		Stats:              main.Stats,
		CodeSize:           main.CodeSize,
		CheckingCodeSize:   main.CheckingCodeSize,
		DuplicatedCodeSize: main.DuplicatedCodeSize,
	}
	for _, p := range main.Profiles {
		res.Profiles = append(res.Profiles, dumpProfile(p))
	}
	if spec.Verify {
		res.Oracle = &OracleVerdict{
			OK:         true, // a violation fails the cell before it gets here
			Events:     main.Aux["oracle-events"],
			ExpectedP1: main.Aux["oracle-expected-p1"],
		}
	}
	if ref != nil {
		n := len(main.Profiles)
		if len(ref.Profiles) < n {
			n = len(ref.Profiles)
		}
		for i := 0; i < n; i++ {
			res.Overlap = append(res.Overlap, ProfileOverlap{
				Name:    main.Profiles[i].Name,
				Percent: profile.Overlap(main.Profiles[i], ref.Profiles[i]),
			})
		}
	}
	return res
}

// BuildResult assembles a job's terminal payload from its engine cell
// result(s) — ref is the overlap reference cell, nil otherwise. It is
// exported for the fleet coordinator, which resolves CAS fast-path hits
// into the same result shape a local run produces, so remote hits stay
// byte-identical with local ones.
func BuildResult(spec JobSpec, main, ref *experiment.CellResult) *JobResult {
	return buildResult(spec, main, ref)
}
