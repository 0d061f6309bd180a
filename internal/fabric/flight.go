package fabric

import (
	"encoding/json"
	"fmt"
	"sort"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

// flight is one live measurement cell: the cluster-wide single-flight
// unit. Every submission of the same cell key attaches to the same
// flight; the flight is dispatched once and its resolution fans out to
// every attached job. All flight state is guarded by the coordinator's
// mutex — dispatchers copy what they need before doing network I/O.
type flight struct {
	key  string
	addr string // CAS address under the fleet ID ("" before the ID is known)
	spec service.JobSpec

	attached []*service.Job  // submissions riding this flight (first = trace holder)
	tried    map[string]bool // workers that already failed this cell
	assigned *worker         // queue the flight currently sits in (nil once dispatched)
	running  *worker         // worker executing it (nil while queued)
	remoteID string          // worker-side job ID while running
	done     bool
	cancel   bool // every attached job cancelled; abort at the next step
}

// Submit is the fabric behind the front door: a duplicate cell
// piggybacks on the in-flight owner, a cell already in the coordinator's
// CAS replica resolves instantly, and everything else shards onto a
// worker queue — or is pushed back with 429 when the fleet queue is
// full (propagated backpressure, proportional Retry-After).
func (c *Coordinator) Submit(j *service.Job) error {
	spec := j.Spec()
	key := spec.CellKey()
	tr := j.Trace()
	c.mu.Lock()
	defer c.mu.Unlock()

	// Cluster-wide single-flight: an identical in-flight cell absorbs
	// this submission; the new job rides the owner with a cause link and
	// replays the owner's event backlog.
	if fl, ok := c.flights[key]; ok && !fl.cancel {
		owner := fl.attached[0]
		tr.Begin(obs.StageMemoFlight, owner.ID())
		j.AppendEvents(owner.EventsSince(0))
		if owner.Status() == service.StatusRunning {
			j.Start()
		}
		if fl.running != nil {
			j.SetWorker(fl.running.name)
		}
		fl.attached = append(fl.attached, j)
		c.reg.Counter(MetricMemoPiggy).Inc()
		return nil
	}

	// CAS fast path: the coordinator's replica may already hold the
	// result (a resubmission, or another node computed it earlier).
	tr.Begin(obs.StageCacheProbe, "")
	if c.cas != nil && !spec.Overlap {
		if data, ok := c.cas.GetAddr(experiment.CASAddr(c.fleetID, key)); ok {
			if res, err := casResult(spec, key, data); err == nil {
				c.reg.Counter(MetricCASLocalHit).Inc()
				tr.Begin(obs.StageExport, "")
				j.Finish(service.StatusDone, "", res)
				return nil
			}
		}
		c.reg.Counter(MetricCASMiss).Inc()
	}

	if c.pending >= c.cfg.QueueDepth {
		return &service.QueueFullError{Depth: c.pending, RetryAfter: c.drain.RetryAfter(c.pending, c.now())}
	}
	tr.Begin(obs.StageQueueWait, "")
	fl := &flight{
		key:      key,
		spec:     spec,
		attached: []*service.Job{j},
		tried:    make(map[string]bool),
	}
	if c.fleetID != "" {
		fl.addr = experiment.CASAddr(c.fleetID, key)
	}
	c.flights[key] = fl
	c.enqueueLocked(fl)
	return nil
}

// casResult turns a CAS payload into a job result through the same
// BuildResult path a worker runs, so the bytes match a local run
// exactly.
func casResult(spec service.JobSpec, key string, data []byte) (json.RawMessage, error) {
	cell, cellKey, err := experiment.DecodeCAS(data)
	if err == nil && cellKey != key {
		err = fmt.Errorf("cas payload holds cell %q", cellKey)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.BuildResult(spec, cell, nil))
}

// Cancel detaches one job from its flight and resolves it cancelled. The
// flight itself is only aborted when its last rider cancels —
// duplicates piggybacking on the cell keep it alive.
func (c *Coordinator) Cancel(j *service.Job) {
	c.mu.Lock()
	fl := c.flights[j.Spec().CellKey()]
	lastRider := fl != nil && fl.detachLocked(j)
	j.Finish(service.StatusCancelled, "cancelled", nil)
	var cancelWorker *worker
	var remoteID string
	if lastRider {
		fl.cancel = true
		if c.dequeueLocked(fl) {
			// Still queued: nothing ran anywhere; retire the flight now.
			c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
		} else if fl.running != nil && fl.remoteID != "" {
			cancelWorker, remoteID = fl.running, fl.remoteID
		}
	}
	c.mu.Unlock()
	if cancelWorker != nil {
		// Propagate to the worker; its event stream resolves the flight.
		c.remoteCancel(cancelWorker, remoteID)
	}
}

// Abort resolves every live flight cancelled — queued cells locally,
// running cells locally too, with a best-effort remote cancel, so a
// hung worker cannot wedge a forced shutdown.
func (c *Coordinator) Abort() {
	type rc struct {
		w  *worker
		id string
	}
	var cancels []rc
	c.mu.Lock()
	for _, fl := range c.flights {
		fl.cancel = true
		if fl.running != nil && fl.remoteID != "" {
			cancels = append(cancels, rc{fl.running, fl.remoteID})
		}
		c.dequeueLocked(fl)
		c.resolveLocked(fl, service.StatusCancelled, "coordinator shutting down", nil)
	}
	c.mu.Unlock()
	for _, rc := range cancels {
		c.remoteCancel(rc.w, rc.id)
	}
}

// Close stops every dispatcher and health probe.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	for _, w := range c.workers {
		if !w.gone {
			w.gone = true
			close(w.stop)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// WorkerHealth is one worker's row in the coordinator /healthz document.
type WorkerHealth struct {
	URL      string  `json:"url"`
	Up       bool    `json:"up"`
	Weight   float64 `json:"weight"`
	Pending  int     `json:"pending"`
	Inflight int     `json:"inflight"`
	Depth    int     `json:"reported_depth"`
	Draining bool    `json:"draining,omitempty"`
}

// Health adds the fleet accounting to the front door's health document:
// the coordinator role, the fleet's build ID and one row per worker.
func (c *Coordinator) Health(doc map[string]any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	workers := make(map[string]WorkerHealth, len(c.workers))
	names := make([]string, 0, len(c.workers))
	for name, wk := range c.workers {
		names = append(names, name)
		workers[name] = WorkerHealth{
			URL: wk.url, Up: wk.up, Weight: wk.weight,
			Pending: len(wk.queue), Inflight: wk.inflight,
			Depth: wk.depth, Draining: wk.draining,
		}
	}
	sort.Strings(names)
	doc["role"] = "coordinator"
	doc["build_id"] = c.fleetID
	doc["workers"] = workers
	doc["worker_set"] = names
}

// CAS serves the coordinator's replica (nil until the fleet ID is known
// or when no cache dir is configured).
func (c *Coordinator) CAS() (*experiment.Cache, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cas, MetricCASRejected
}

// enqueueLocked places a flight on its rendezvous owner's queue (or
// fails it when no worker remains eligible). Caller holds c.mu.
func (c *Coordinator) enqueueLocked(fl *flight) {
	w := c.assignLocked(fl)
	if w == nil {
		c.resolveLocked(fl, service.StatusFailed,
			"no eligible worker (all tried, draining or removed)", nil)
		return
	}
	fl.assigned = w
	w.queue = append(w.queue, fl)
	c.pending++
	c.reg.Gauge(service.MetricQueueDepth).Add(1)
	c.reg.Gauge(workerMetric(w.name, "pending")).Add(1)
	c.cond.Broadcast()
}

// dequeueLocked removes a queued flight from its assigned worker (a
// cancel, or a reassignment). Caller holds c.mu.
func (c *Coordinator) dequeueLocked(fl *flight) bool {
	w := fl.assigned
	if w == nil {
		return false
	}
	for i, q := range w.queue {
		if q == fl {
			w.queue = append(w.queue[:i], w.queue[i+1:]...)
			fl.assigned = nil
			c.pending--
			c.reg.Gauge(service.MetricQueueDepth).Add(-1)
			c.reg.Gauge(workerMetric(w.name, "pending")).Add(-1)
			return true
		}
	}
	fl.assigned = nil
	return false
}

// reassignQueueLocked moves every queued flight off a down or draining
// worker to its next rendezvous choice. Caller holds c.mu.
func (c *Coordinator) reassignQueueLocked(w *worker, why string) {
	moved := w.queue
	w.queue = nil
	for _, fl := range moved {
		fl.assigned = nil
		c.pending--
		c.reg.Gauge(service.MetricQueueDepth).Add(-1)
		c.reg.Gauge(workerMetric(w.name, "pending")).Add(-1)
		if fl.cancel || fl.done {
			continue
		}
		c.logf("fleet: cell %.20q reassigned off %s (%s)", fl.key, w.name, why)
		c.enqueueLocked(fl)
	}
}

// resolveLocked fans a flight's terminal outcome out to every attached
// job and retires the flight. A failed or cancelled outcome leaves no
// trace in the CAS — failures are never memoized; the next submission
// of the cell recomputes it. Caller holds c.mu.
func (c *Coordinator) resolveLocked(fl *flight, st service.JobStatus, errMsg string, result json.RawMessage) {
	if fl.done {
		return
	}
	fl.done = true
	if w := fl.running; w != nil {
		c.setRunningLocked(fl, nil)
		w.inflight--
		c.reg.Gauge(workerMetric(w.name, "inflight")).Add(-1)
		c.retireIfDrainedLocked(w)
	}
	delete(c.flights, fl.key)
	for _, j := range fl.attached {
		// A job whose cancel raced the completion keeps its cancelled
		// state; the flight outcome applies to everyone still live.
		j.Finish(st, errMsg, result)
	}
	c.cond.Broadcast()
}

// setRunningLocked records the worker executing fl (nil: none) on the
// flight and on every attached job's document. Caller holds c.mu.
func (c *Coordinator) setRunningLocked(fl *flight, w *worker) {
	fl.running = w
	name := ""
	if w != nil {
		name = w.name
	}
	for _, j := range fl.attached {
		j.SetWorker(name)
	}
}

// retireIfDrainedLocked completes a draining worker's removal once its
// last inflight cell resolves. Caller holds c.mu.
func (c *Coordinator) retireIfDrainedLocked(w *worker) {
	if w.draining && !w.gone && w.inflight == 0 && len(w.queue) == 0 {
		c.removeWorkerLocked(w)
	}
}

// detachLocked removes a cancelled job from its flight; it reports
// true when j rode the flight and no live rider is left, so the flight
// should be aborted. Caller holds c.mu.
func (fl *flight) detachLocked(j *service.Job) bool {
	if fl.done {
		return false
	}
	live := fl.attached[:0]
	rode := false
	for _, a := range fl.attached {
		if a == j {
			rode = true
		} else {
			live = append(live, a)
		}
	}
	fl.attached = live
	return rode && len(live) == 0
}
