package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"instrsample/internal/load"
)

// Client behaviour shared by every HTTP workload.
const (
	clients     = 2  // default closed-loop clients, one per CPU of the reference host
	maxRetries  = 50 // 429 answers before an op counts as refused
	retryDelay  = 5 * time.Millisecond
	opTimeout   = 60 * time.Second // an op that takes longer has failed
	slowEvery   = 8                // a slow SSE reader pauses after this many lines
	slowPause   = 2 * time.Millisecond
	failedOpsMs = float64(opTimeout / time.Millisecond) // latency charged to a failed op
)

// opRecord is what the client saw of one op.
type opRecord struct {
	op      load.Op
	status  string // terminal status from the job view
	err     error  // the HTTP exchange broke or answered out of protocol
	refused bool   // 429 on every attempt
	// jobMs is POST sent → SSE done received; cancelMs is DELETE sent →
	// SSE done received. Both at the clock's full resolution.
	jobMs, cancelMs float64
	submitUs        float64 // the accepted POST → its 202
	rejected        int     // 429 answers before acceptance
	// queueWaitUs (started − created) and doneLagUs (finished → SSE done
	// received) come from the job view; timed says they are present.
	queueWaitUs, doneLagUs float64
	timed                  bool
	result                 *jobResult
	// startS is when the op started, in seconds since the window opened.
	startS float64
}

// driveConfig is one closed-loop run against a front door.
type driveConfig struct {
	base   string
	ops    []load.Op
	window time.Duration
	// clients is the number of closed-loop clients; 0 means clients.
	clients int
	// minOps ops run even past the window, and atMinOps runs once when
	// that many have completed: the fixed-work point peak RSS is read at.
	minOps   int
	atMinOps func()
	tr       *tracer
	// abSlice, when set, traces only the ops that start in the odd
	// slices of this length, so traced and untraced traffic alternate
	// on the same system.
	abSlice time.Duration
}

// driveResult is the client's record of a run.
type driveResult struct {
	records []opRecord // in plan order, only ops that ran
	elapsed time.Duration
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}
}

// drive runs the plan's ops in order from a pool of closed-loop clients:
// each client submits its next op only after its previous one finished.
// Ops start until the window closes (and at least minOps of them).
func drive(ctx context.Context, hc *http.Client, cfg driveConfig) driveResult {
	// Records are allocated as ops run, and get their op only after the
	// window: a full record per plan op would be a large live heap the
	// client's collector scans all through the run.
	recs := make([]*opRecord, len(cfg.ops))
	start := time.Now()
	deadline := start.Add(cfg.window)
	var next, completed atomic.Int64
	var once sync.Once
	var workers, readers sync.WaitGroup
	n := cfg.clients
	if n == 0 {
		n = clients
	}
	for c := 0; c < n; c++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(cfg.ops) || (i >= cfg.minOps && time.Now().After(deadline)) {
					return
				}
				at := time.Since(start)
				tr := cfg.tr
				if cfg.abSlice > 0 && int(at/cfg.abSlice)%2 == 0 {
					tr = nil
				}
				rec := runOp(ctx, hc, cfg.base, cfg.ops[i], tr, &readers)
				rec.startS = at.Seconds()
				recs[i] = &rec
				if int(completed.Add(1)) == cfg.minOps && cfg.atMinOps != nil {
					once.Do(cfg.atMinOps)
				}
			}
		}()
	}
	workers.Wait()
	elapsed := time.Since(start)
	readers.Wait()
	hc.CloseIdleConnections()
	var out []opRecord
	for i, r := range recs {
		if r != nil {
			r.op = cfg.ops[i]
			out = append(out, *r)
		}
	}
	return driveResult{records: out, elapsed: elapsed}
}

// runOp submits one op and follows it to a terminal state over SSE.
func runOp(ctx context.Context, hc *http.Client, base string, op load.Op, tr *tracer, readers *sync.WaitGroup) opRecord {
	var rec opRecord // drive fills in rec.op after the window
	octx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req := fmt.Sprintf("op-%d", op.Index)
	opID := tr.id()
	opStart := time.Now()
	defer func() { tr.add(opID, 0, "client.op", req, opStart, time.Now()) }()

	body, err := json.Marshal(op.Spec)
	if err != nil {
		rec.err = err
		return rec
	}
	var id string
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		code, doc, err := exchange(octx, hc, http.MethodPost, base+"/v1/jobs", body)
		tr.add(tr.id(), opID, "service.submit", req, t0, time.Now())
		if err != nil {
			rec.err = err
			return rec
		}
		if code == http.StatusAccepted {
			rec.submitUs = float64(time.Since(t0).Nanoseconds()) / 1e3
			id = doc.ID
			break
		}
		if code != http.StatusTooManyRequests {
			rec.err = fmt.Errorf("submit: status %d: %s", code, doc.Error)
			return rec
		}
		rec.rejected++
		if attempt >= maxRetries {
			rec.refused = true
			return rec
		}
		select {
		case <-octx.Done():
			rec.err = octx.Err()
			return rec
		case <-time.After(retryDelay):
		}
	}
	req = id

	evStart := time.Now()
	events, err := openEvents(octx, hc, base, id)
	if err != nil {
		rec.err = err
		return rec
	}
	defer events.Close()
	if op.SlowReader {
		readers.Add(1)
		go func() {
			defer readers.Done()
			slowRead(octx, hc, base, id)
		}()
	}
	var status string
	var doneAt time.Time
	if op.Cancel {
		select {
		case <-octx.Done():
			rec.err = octx.Err()
			return rec
		case <-time.After(time.Duration(op.CancelAfterMs) * time.Millisecond):
		}
		t0 := time.Now()
		code, _, err := exchange(octx, hc, http.MethodDelete, base+"/v1/jobs/"+id, nil)
		tr.add(tr.id(), opID, "service.cancel", req, t0, time.Now())
		if err == nil && code != http.StatusAccepted && code != http.StatusConflict {
			err = fmt.Errorf("cancel: status %d", code)
		}
		if err != nil {
			rec.err = err
			return rec
		}
		status, doneAt, err = awaitDone(events)
		rec.cancelMs = float64(doneAt.Sub(t0).Nanoseconds()) / 1e6
	} else {
		status, doneAt, err = awaitDone(events)
		rec.jobMs = float64(doneAt.Sub(opStart).Nanoseconds()) / 1e6
	}
	tr.add(tr.id(), opID, "service.events", req, evStart, doneAt)
	if err != nil {
		rec.err = err
		return rec
	}

	t0 := time.Now()
	v, err := getJob(octx, hc, base, id)
	tr.add(tr.id(), opID, "service.get", req, t0, time.Now())
	if err != nil {
		rec.err = err
		return rec
	}
	if v.Status != status {
		rec.err = fmt.Errorf("job %s: SSE said %s, view says %s", id, status, v.Status)
		return rec
	}
	rec.status = v.Status
	rec.result = v.Result
	if v.Started != nil && v.Finished != nil {
		rec.timed = true
		rec.queueWaitUs = float64(v.Started.Sub(v.Created).Nanoseconds()) / 1e3
		rec.doneLagUs = float64(doneAt.Sub(*v.Finished).Nanoseconds()) / 1e3
	}
	return rec
}

// submitDoc is the body of a submit or cancel answer.
type submitDoc struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// exchange makes one request and decodes the JSON answer.
func exchange(ctx context.Context, hc *http.Client, method, url string, body []byte) (int, submitDoc, error) {
	var doc submitDoc
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, doc, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, doc, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, doc, err
	}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &doc); err != nil {
			return resp.StatusCode, doc, fmt.Errorf("%s %s: %d: undecodable answer: %w", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, doc, nil
}

// eventStream is an open SSE response.
type eventStream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

func (e *eventStream) Close() { e.body.Close() }

func openEvents(ctx context.Context, hc *http.Client, base, id string) (*eventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	// A small first buffer: one is allocated per job, and the scanner
	// grows it for a longer line.
	sc.Buffer(make([]byte, 4<<10), 4<<20)
	return &eventStream{body: resp.Body, sc: sc}, nil
}

// awaitDone reads the stream up to the done event and returns the
// terminal status it carries and when it arrived.
func awaitDone(e *eventStream) (string, time.Time, error) {
	for e.sc.Scan() {
		if e.sc.Text() != "event: done" {
			continue
		}
		at := time.Now()
		if !e.sc.Scan() {
			break
		}
		var d struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(e.sc.Text(), "data: ")), &d); err != nil {
			return "", at, fmt.Errorf("done event: %w", err)
		}
		return d.Status, at, nil
	}
	if err := e.sc.Err(); err != nil {
		return "", time.Now(), err
	}
	return "", time.Now(), io.ErrUnexpectedEOF
}

// slowRead is a second subscriber that throttles itself, so the daemon's
// flush path has to absorb a reader that lags.
func slowRead(ctx context.Context, hc *http.Client, base, id string) {
	e, err := openEvents(ctx, hc, base, id)
	if err != nil {
		return // the op's own stream reports real failures
	}
	defer e.Close()
	for n := 1; e.sc.Scan(); n++ {
		if e.sc.Text() == "event: done" {
			return
		}
		if n%slowEvery == 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(slowPause):
			}
		}
	}
}

// jobView is the part of GET /v1/jobs/{id} the client reads; isampd and
// isampfleet answer with the same shape.
type jobView struct {
	Status   string     `json:"status"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
	Result   *jobResult `json:"result"`
}

func getJob(ctx context.Context, hc *http.Client, base, id string) (jobView, error) {
	var v jobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return v, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("job %s: status %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("job %s: %w", id, err)
	}
	return v, nil
}

// specScale is the scale a bench spec runs at, after the daemon's
// defaulting.
func specScale(s float64) float64 {
	if s == 0 {
		return 0.1
	}
	return s
}

// refJobs lists the references the ops' bench jobs need.
func refJobs(ops []load.Op) []refJob {
	var out []refJob
	for _, op := range ops {
		if op.Spec.Bench != "" {
			out = append(out, refJob{op.Spec.Bench, specScale(op.Spec.Scale)})
		}
	}
	return out
}

// outcome classifies one op, checking a done job's result; a failed op
// comes with the reason.
func outcome(r *refs, rec opRecord) (Tally, string) {
	t := Tally{Attempted: 1}
	why := ""
	switch {
	case rec.err != nil:
		t.Transport++
		why = rec.err.Error()
	case rec.refused:
		t.Refused++
		why = fmt.Sprintf("refused %d times", rec.rejected)
	case rec.op.Cancel && rec.status == "cancelled":
		t.Cancelled++
	case rec.op.Cancel && rec.status == "done":
		t.CancelRaces++
	case rec.status != "done":
		t.JobFailed++
		why = "job " + rec.status
	default:
		if err := checkJob(r, rec.op.Spec.Bench, specScale(rec.op.Spec.Scale), rec.op.Spec.Verify, rec.result); err != nil {
			t.Wrong++
			why = err.Error()
		} else {
			t.Done++
		}
	}
	if why != "" {
		why = fmt.Sprintf("op %d: %s", rec.op.Index, why)
	}
	return t, why
}

// tally classifies every op.
func tally(r *refs, recs []opRecord) (Tally, []string) {
	var t Tally
	var failures []string
	for _, rec := range recs {
		o, why := outcome(r, rec)
		t.Add(o)
		if why != "" {
			failures = append(failures, why)
		}
	}
	return t, failures
}
