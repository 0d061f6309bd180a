package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/obs"
	"instrsample/internal/service"
	"instrsample/internal/telemetry"
)

// claimLocked hands w its next flight: its own queue first, then — when
// idle — a steal from the most-loaded peer. A peer qualifies for
// stealing when its queue exceeds the steal threshold, or
// unconditionally when it is down or draining (reassignment safety
// net). Caller holds c.mu; the returned flight is marked running on w.
func (c *Coordinator) claimLocked(w *worker) (fl *flight, stolen string) {
	if !w.up || w.draining {
		return nil, ""
	}
	if len(w.queue) > 0 {
		fl = w.queue[0]
		w.queue = w.queue[1:]
	} else {
		var from *worker
		best := 0
		for _, p := range c.workers {
			if p == w || len(p.queue) == 0 {
				continue
			}
			qualifies := len(p.queue) > c.stealThreshold || !p.up || p.draining
			if !qualifies || len(p.queue) <= best {
				continue
			}
			// Steal only cells this worker is still allowed to run.
			if p.queue[len(p.queue)-1].tried[w.name] {
				continue
			}
			from, best = p, len(p.queue)
		}
		if from == nil {
			return nil, ""
		}
		// Take from the back: the cell furthest from starting on its owner.
		fl = from.queue[len(from.queue)-1]
		from.queue = from.queue[:len(from.queue)-1]
		stolen = from.name + "→" + w.name
		c.reg.Counter(MetricSteals).Inc()
	}
	prev := fl.assigned
	fl.assigned = nil
	c.pending--
	c.reg.Gauge(service.MetricQueueDepth).Add(-1)
	if prev != nil {
		c.reg.Gauge(workerMetric(prev.name, "pending")).Add(-1)
	}
	c.drain.Record(c.now())
	c.setRunningLocked(fl, w)
	fl.tried[w.name] = true
	w.inflight++
	c.reg.Gauge(workerMetric(w.name, "inflight")).Add(1)
	c.reg.Counter(workerMetric(w.name, "dispatched")).Inc()
	return fl, stolen
}

// dispatchLoop is one worker slot: it claims flights for w (stealing
// when idle) and runs each through the remote dispatch protocol until
// the coordinator closes or the worker is removed.
func (c *Coordinator) dispatchLoop(w *worker) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var fl *flight
		var stolen string
		for {
			if c.closed || w.gone {
				c.mu.Unlock()
				return
			}
			if fl, stolen = c.claimLocked(w); fl != nil {
				break
			}
			c.cond.Wait()
		}
		if fl.cancel {
			c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
			c.mu.Unlock()
			continue
		}
		if stolen != "" {
			c.beginStageLocked(fl, obs.StageSteal, stolen)
		}
		c.mu.Unlock()
		c.dispatch(w, fl, stolen != "")
	}
}

// beginStageLocked advances the flight's trace chain — the chains of
// every attached job that is still live. Caller holds c.mu.
func (c *Coordinator) beginStageLocked(fl *flight, s obs.Stage, cause string) {
	for _, j := range fl.attached {
		j.Trace().Begin(s, cause)
	}
}

// markStartedLocked stamps the attached jobs running. Caller holds c.mu.
func (c *Coordinator) markStartedLocked(fl *flight) {
	for _, j := range fl.attached {
		j.Start()
	}
}

// dispatch runs one flight on one worker: an optional remote CAS probe,
// the POST, the worker's event stream, the terminal fetch, and CAS
// replication. Any worker-side failure requeues the cell elsewhere (at
// most once per worker); job-side failures resolve the flight.
func (c *Coordinator) dispatch(w *worker, fl *flight, stolen bool) {
	cause := w.name
	c.mu.Lock()
	if len(fl.tried) > 1 {
		// Not the first attempt: this dispatch is a requeue continuation.
		cause = "requeue:" + w.name
	}
	c.beginStageLocked(fl, obs.StageDispatch, cause)
	primary := c.primaryLocked(fl)
	addr := fl.addr
	if addr == "" && c.fleetID != "" {
		addr = experiment.CASAddr(c.fleetID, fl.key)
		fl.addr = addr
	}
	c.mu.Unlock()

	// Dispatching away from the cell's rendezvous owner (a steal or a
	// requeue): the owner may hold the result from an earlier run, so
	// probe its CAS before paying for a recompute.
	if addr != "" && !fl.spec.Overlap && primary != nil && primary != w {
		if data := c.remoteProbe(fl, primary, addr); data != nil {
			c.resolveFromCAS(fl, data, MetricCASRemoteHit)
			return
		}
	}

	body, err := json.Marshal(fl.spec)
	if err != nil {
		c.failFlight(fl, fmt.Sprintf("marshal spec: %v", err))
		return
	}
	resp, err := c.client.Post(w.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.workerFailed(w, fl, fmt.Sprintf("submit to %s: %v", w.name, err))
		return
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		// fall through
	case http.StatusTooManyRequests:
		// Worker pushback propagates: honor its Retry-After (bounded),
		// then put the cell back at the head of this worker's queue; a
		// 429 is congestion, not failure, so the worker stays eligible.
		resp.Body.Close()
		ra := 1
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			ra = v
		}
		if ra > 5 {
			ra = 5
		}
		select {
		case <-time.After(time.Duration(ra) * time.Second):
		case <-w.stop:
		}
		c.mu.Lock()
		delete(fl.tried, w.name)
		if fl.running == w {
			c.setRunningLocked(fl, nil)
			w.inflight--
			c.reg.Gauge(workerMetric(w.name, "inflight")).Add(-1)
		}
		if fl.done {
			c.mu.Unlock()
			return
		}
		if fl.cancel {
			c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
		} else {
			c.beginStageLocked(fl, obs.StageQueueWait, "429:"+w.name)
			c.requeueLocked(fl, w)
		}
		c.mu.Unlock()
		return
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode == http.StatusBadRequest {
			// The spec itself is bad; no other worker will accept it.
			c.failFlight(fl, fmt.Sprintf("worker %s rejected job: %s", w.name, msg))
			return
		}
		c.workerFailed(w, fl, fmt.Sprintf("worker %s: status %d", w.name, resp.StatusCode))
		return
	}
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || acc.ID == "" {
		c.workerFailed(w, fl, fmt.Sprintf("worker %s: bad accept body", w.name))
		return
	}
	c.mu.Lock()
	fl.remoteID = acc.ID
	c.markStartedLocked(fl)
	if fl.cancel {
		c.mu.Unlock()
		c.remoteCancel(w, acc.ID)
		// The stream below observes the cancellation and resolves.
	} else {
		c.mu.Unlock()
	}

	ok := c.streamEvents(w, fl, acc.ID)
	if !ok {
		// The stream broke before the job was terminal; one direct view
		// fetch decides between a finished job and a lost worker.
		if view, err := c.fetchView(w, acc.ID); err == nil && view.Status.Terminal() {
			c.settle(w, fl, view)
			return
		}
		c.workerFailed(w, fl, fmt.Sprintf("worker %s lost mid-job", w.name))
		return
	}
	view, err := c.fetchView(w, acc.ID)
	if err != nil {
		c.workerFailed(w, fl, fmt.Sprintf("worker %s lost at result fetch: %v", w.name, err))
		return
	}
	c.settle(w, fl, view)
}

// primaryLocked returns the flight's current rendezvous owner (used as
// the remote-CAS probe target). Caller holds c.mu.
func (c *Coordinator) primaryLocked(fl *flight) *worker {
	var best *worker
	bestScore := -1.0
	for _, w := range c.workers {
		if w.gone || !w.up {
			continue
		}
		if s := rendezvousScore(fl.key, w.name, w.weight); best == nil || s > bestScore {
			best, bestScore = w, s
		}
	}
	return best
}

// remoteView is the subset of a worker job document the coordinator
// consumes; Result passes through untouched so a fleet answer is
// byte-identical with the worker's own.
type remoteView struct {
	Status service.JobStatus `json:"status"`
	Error  string            `json:"error"`
	Result json.RawMessage   `json:"result"`
}

// fetchView reads a worker job's terminal document.
func (c *Coordinator) fetchView(w *worker, remoteID string) (remoteView, error) {
	var v remoteView
	resp, err := c.client.Get(w.url + "/v1/jobs/" + remoteID)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// settle applies a worker job's terminal document to the flight.
func (c *Coordinator) settle(w *worker, fl *flight, view remoteView) {
	switch view.Status {
	case service.StatusDone:
		c.replicate(w, fl)
		c.mu.Lock()
		c.beginStageLocked(fl, obs.StageExport, "")
		c.resolveLocked(fl, service.StatusDone, "", view.Result)
		c.mu.Unlock()
	case service.StatusCancelled:
		c.mu.Lock()
		if fl.cancel {
			c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		// Cancelled but not by us: the worker is draining away. Requeue.
		c.workerFailed(w, fl, fmt.Sprintf("worker %s cancelled the job (draining)", w.name))
	default:
		c.mu.Lock()
		c.resolveLocked(fl, service.StatusFailed, view.Error, nil)
		c.mu.Unlock()
	}
}

// replicate pulls the finished cell's CAS entry from the worker into
// the coordinator's replica, verifying integrity; a corrupt payload is
// rejected and refetched once. Replication is best-effort — the result
// already arrived via the job document.
func (c *Coordinator) replicate(w *worker, fl *flight) {
	c.mu.Lock()
	cas := c.cas
	addr := fl.addr
	overlap := fl.spec.Overlap
	c.mu.Unlock()
	if cas == nil || addr == "" || overlap {
		return
	}
	if _, have := cas.GetAddr(addr); have {
		return
	}
	for attempt := 0; attempt < 2; attempt++ {
		data, err := c.casGet(w, addr)
		if err != nil || data == nil {
			return // worker has no entry (cache disabled) or is gone
		}
		err = cas.PutAddr(addr, data)
		if !errors.Is(err, experiment.ErrCASIntegrity) {
			if err != nil {
				c.logf("fleet: cas %s from %s not stored: %v", addr, w.name, err)
			}
			return
		}
		c.reg.Counter(MetricCASRejected).Inc()
		c.logf("fleet: cas %s from %s rejected (attempt %d): %v", addr, w.name, attempt+1, err)
	}
}

// casGet fetches one raw CAS entry from a worker; nil with no error
// means the worker has no such entry.
func (c *Coordinator) casGet(w *worker, addr string) ([]byte, error) {
	resp, err := c.client.Get(w.url + "/v1/cas/" + addr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cas get %s: status %d", addr, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
}

// remoteProbe asks a peer's CAS for the flight's result, verifying the
// payload before trusting it. A corrupt payload is rejected, counted
// and refetched once (satisfying the reject + refetch contract); nil
// means "dispatch normally".
func (c *Coordinator) remoteProbe(fl *flight, peer *worker, addr string) []byte {
	c.mu.Lock()
	c.beginStageLocked(fl, obs.StageRemoteProbe, peer.name)
	id := c.fleetID
	c.mu.Unlock()
	for attempt := 0; attempt < 2; attempt++ {
		data, err := c.casGet(peer, addr)
		if err != nil || data == nil {
			c.reg.Counter(MetricCASMiss).Inc()
			return nil
		}
		if err := experiment.VerifyCAS(id, addr, data); err != nil {
			c.reg.Counter(MetricCASRejected).Inc()
			c.logf("fleet: cas probe %s from %s rejected (attempt %d): %v", addr, peer.name, attempt+1, err)
			continue
		}
		if c.cas != nil {
			c.cas.PutAddr(addr, data) //nolint:errcheck // replica is best-effort
		}
		return data
	}
	return nil
}

// resolveFromCAS turns a verified CAS payload into the flight's result.
func (c *Coordinator) resolveFromCAS(fl *flight, data []byte, hitMetric string) {
	res, err := casResult(fl.spec, fl.key, data)
	if err != nil {
		c.failFlight(fl, fmt.Sprintf("cas result: %v", err))
		return
	}
	c.reg.Counter(hitMetric).Inc()
	c.mu.Lock()
	c.markStartedLocked(fl)
	c.beginStageLocked(fl, obs.StageExport, "")
	c.resolveLocked(fl, service.StatusDone, "", res)
	c.mu.Unlock()
}

// failFlight resolves a flight failed without blaming the worker.
func (c *Coordinator) failFlight(fl *flight, msg string) {
	c.mu.Lock()
	c.resolveLocked(fl, service.StatusFailed, msg, nil)
	c.mu.Unlock()
}

// workerFailed handles a hard worker-side failure: the worker is marked
// down pending its next health probe, and the cell requeues on the next
// eligible worker (it has already recorded this worker in tried, so the
// retry is at most once per worker). The requeue is visible in the
// ledger: the queue-wait stage reopens with a requeue cause.
func (c *Coordinator) workerFailed(w *worker, fl *flight, msg string) {
	c.logf("fleet: %s", msg)
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl.running == w {
		c.setRunningLocked(fl, nil)
		w.inflight--
		c.reg.Gauge(workerMetric(w.name, "inflight")).Add(-1)
	}
	fl.remoteID = ""
	c.reg.Counter(workerMetric(w.name, "failures")).Inc()
	if fl.done {
		// A racing resolution (forced shutdown, cancel) already settled
		// the flight; nothing to requeue.
		c.retireIfDrainedLocked(w)
		return
	}
	if w.up {
		w.up = false
		c.reg.Gauge(workerMetric(w.name, "up")).Set(0)
		c.reg.Counter(MetricWorkerLost).Inc()
		c.reassignQueueLocked(w, "failed")
	}
	c.retireIfDrainedLocked(w)
	if fl.cancel {
		c.resolveLocked(fl, service.StatusCancelled, "cancelled", nil)
		return
	}
	c.reg.Counter(MetricRequeues).Inc()
	c.beginStageLocked(fl, obs.StageQueueWait, "requeue:"+w.name)
	c.requeueLocked(fl, w)
}

// requeueLocked puts a flight back in rotation after a dispatch did not
// stick. Caller holds c.mu.
func (c *Coordinator) requeueLocked(fl *flight, last *worker) {
	if fl.done {
		return
	}
	if !fl.tried[last.name] && last.eligibleLocked(fl) && last.up {
		// 429 path: back on the same worker's queue, at the head.
		fl.assigned = last
		last.queue = append([]*flight{fl}, last.queue...)
		c.pending++
		c.reg.Gauge(service.MetricQueueDepth).Add(1)
		c.reg.Gauge(workerMetric(last.name, "pending")).Add(1)
		c.cond.Broadcast()
		return
	}
	c.enqueueLocked(fl)
}

// remoteCancel issues a DELETE for a worker-side job.
func (c *Coordinator) remoteCancel(w *worker, remoteID string) {
	req, err := http.NewRequest(http.MethodDelete, w.url+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err == nil {
		resp.Body.Close()
	}
}

// streamEvents consumes the worker's SSE stream for a running job,
// relaying its columns/metrics rows into every attached job's event log
// (the worker's ledger is its own attribution; the front door streams
// the coordinator's at done). It returns true when the stream reached
// the worker's done event, false when the connection broke first.
func (c *Coordinator) streamEvents(w *worker, fl *flight, remoteID string) bool {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { // a removed worker aborts the stream promptly
		select {
		case <-w.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event string
	var cols []string
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			if event = v; event == "done" {
				return true
			}
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "columns":
			json.Unmarshal([]byte(data), &cols) //nolint:errcheck // a bad block only loses columns
		case "metrics":
			var row telemetry.SeriesRow
			if json.Unmarshal([]byte(data), &row) != nil {
				continue
			}
			rows := []telemetry.SeriesRow{row}
			c.mu.Lock()
			if !fl.done {
				for _, j := range fl.attached {
					j.AppendEvents(cols, rows)
				}
			}
			c.mu.Unlock()
		}
	}
	return false
}
