package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"instrsample/internal/obs"
	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
	"instrsample/internal/vm"
)

// JobStatus is the job state machine: queued → running → one of the
// three terminal states. DELETE moves a queued or running job to
// cancelled; a wall-clock timeout moves it to failed (a deadline is a
// job outcome, not an operator request — see DESIGN.md §10).
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// OracleVerdict is the invariant oracle's summary for a Verify job.
type OracleVerdict struct {
	// OK is true when every sampling invariant held.
	OK bool `json:"ok"`
	// Events is the number of observer events the oracle checked.
	Events int64 `json:"events"`
	// ExpectedP1 counts the bounded, expected Property-1 excesses.
	ExpectedP1 int64 `json:"expected_p1"`
	// Error is the first violation, when OK is false.
	Error string `json:"error,omitempty"`
}

// ProfileOverlap is one profile's accuracy against the exhaustive
// reference run (the paper's overlap percentage).
type ProfileOverlap struct {
	// Name is the profile name (shared by sampled and reference).
	Name string `json:"name"`
	// Percent is the overlap percentage in [0, 100].
	Percent float64 `json:"percent"`
}

// ProfileDump is the JSON rendering of one instrumentation profile: the
// entry multiset in the deterministic descending-count order that
// profile.Entries defines.
type ProfileDump struct {
	Name    string          `json:"name"`
	Total   uint64          `json:"total"`
	Events  int             `json:"events"`
	Entries []profile.Entry `json:"entries,omitempty"`
}

// dumpProfile converts a live profile to its JSON form.
func dumpProfile(p *profile.Profile) ProfileDump {
	return ProfileDump{
		Name:    p.Name,
		Total:   p.Total(),
		Events:  p.NumEvents(),
		Entries: p.Entries(),
	}
}

// JobResult is the terminal payload of a successful job.
type JobResult struct {
	// Return and Output are the program's observable behaviour — equal,
	// byte for byte, to what isamp prints for the same configuration.
	Return int64   `json:"return"`
	Output []int64 `json:"output,omitempty"`
	// Stats are the VM's execution counters.
	Stats vm.Stats `json:"stats"`
	// Profiles are the instrumentation profiles, in owner order.
	Profiles []ProfileDump `json:"profiles,omitempty"`
	// CodeSize, CheckingCodeSize and DuplicatedCodeSize are the compiled
	// code sizes in bytes.
	CodeSize           int `json:"code_size"`
	CheckingCodeSize   int `json:"checking_code_size,omitempty"`
	DuplicatedCodeSize int `json:"duplicated_code_size,omitempty"`
	// Oracle is the invariant verdict (Verify jobs only).
	Oracle *OracleVerdict `json:"oracle,omitempty"`
	// Overlap holds per-profile accuracy vs the exhaustive reference
	// (Overlap jobs only).
	Overlap []ProfileOverlap `json:"overlap,omitempty"`
}

// jobDoc is the GET /v1/jobs/{id} response body, the same document at
// isampd and at isampfleet.
type jobDoc struct {
	ID       string     `json:"id"`
	Status   JobStatus  `json:"status"`
	Spec     string     `json:"spec"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Result is the done job's JobResult, encoded once when the job
	// finishes (or passed through byte for byte from a fleet worker).
	Result json.RawMessage `json:"result,omitempty"`
	// Worker names the fleet worker running the job; empty (and omitted)
	// at a single daemon.
	Worker string `json:"worker,omitempty"`
	// Ledger is the job's wall-clock attribution (present when the obs
	// mode was not off at accept): exact per-stage durations that sum to
	// the end-to-end latency. Live jobs report the open stage up to now.
	Ledger *obs.Ledger `json:"ledger,omitempty"`
}

// Job is one accepted unit of work: the record the front door serves
// (GET, SSE, healthz) and the Executor drives to a terminal state.
// Mutable state is guarded by mu; the immutables are set at creation.
type Job struct {
	id      string
	spec    JobSpec
	created time.Time
	now     func() time.Time
	// ctx is a child of the front door's base context; it fires on
	// DELETE, on timeout_ms and on a forced drain. The local pool runs
	// the job under it; the fleet coordinator cancels remotely instead.
	ctx    context.Context
	cancel context.CancelFunc
	// trace is the job's span chain (nil when the obs mode was off at
	// accept). Set before the job is shared, immutable afterwards; the
	// chain has its own lock, so it is read without j.mu.
	trace *obs.JobTrace
	// srv is the front door that accepted the job; Finish books the
	// job's outcome there. Nil only for jobs built directly in tests.
	srv *Server
	// done closes once the terminal status is visible.
	done chan struct{}

	mu        sync.Mutex
	status    JobStatus
	closing   bool // Finish has claimed the terminal transition
	started   time.Time
	finished  time.Time
	errMsg    string
	result    json.RawMessage
	worker    string
	requested bool // DELETE arrived (distinguishes cancel from timeout)
	// Event-stream state: columns freeze at the first batch; rows only
	// append; wake (made on demand by a waiting reader) closes on the
	// next append.
	eventCols []string
	events    []telemetry.SeriesRow
	wake      chan struct{}
}

func newJob(id string, spec JobSpec, parent context.Context, now func() time.Time) *Job {
	var ctx context.Context
	var cancel context.CancelFunc
	if spec.TimeoutMs > 0 {
		ctx, cancel = context.WithTimeout(parent, time.Duration(spec.TimeoutMs)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	if now == nil {
		now = time.Now
	}
	return &Job{
		id:      id,
		spec:    spec,
		created: now(),
		now:     now,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusQueued,
	}
}

// ID returns the job's front-door ID (job-NNNNNN).
func (j *Job) ID() string { return j.id }

// Spec returns the job's spec, defaults applied.
func (j *Job) Spec() JobSpec { return j.spec }

// Trace returns the job's span chain (nil when the obs mode was off at
// accept; every JobTrace method is nil-safe).
func (j *Job) Trace() *obs.JobTrace { return j.trace }

// doc snapshots the job for JSON rendering.
func (j *Job) doc() jobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobDoc{
		ID:      j.id,
		Status:  j.status,
		Spec:    j.spec.describe(),
		Created: j.created,
		Error:   j.errMsg,
		Result:  j.result,
		Worker:  j.worker,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	v.Ledger = j.trace.Ledger() // nil-safe; nil when obs was off
	return v
}

// Status returns the current (published) state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Start transitions queued → running. It returns false when the job is
// no longer queued (already running, or cancelled while queued).
func (j *Job) Start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued || j.closing {
		return false
	}
	j.status = StatusRunning
	j.started = j.now()
	return true
}

// SetWorker records which fleet worker runs the job ("" when none).
func (j *Job) SetWorker(name string) {
	j.mu.Lock()
	j.worker = name
	j.mu.Unlock()
}

// Finish moves the job to a terminal state. Everything a reader could
// learn about the outcome is recorded first — the span chain closes,
// and the front door books the ledger's stage histograms, the job
// counters and the duration histogram — and only then does the
// terminal status become visible to GET, SSE and healthz, and done
// close. Later calls are no-ops, so a cancel racing a natural
// completion resolves to whichever lands first.
func (j *Job) Finish(st JobStatus, errMsg string, result json.RawMessage) {
	j.mu.Lock()
	if j.closing {
		j.mu.Unlock()
		return
	}
	j.closing = true
	j.mu.Unlock()
	finished := j.now()
	// Name the chain here too: a fast job can finish before the front
	// door's own SetJob runs, and its trace dump must carry the ID.
	j.trace.SetJob(j.id)
	j.trace.Finish(string(st))
	if j.srv != nil {
		j.srv.record(j, st, finished)
	}
	j.mu.Lock()
	j.status, j.finished, j.errMsg, j.result = st, finished, errMsg, result
	j.mu.Unlock()
	close(j.done)
}

// requestCancel marks the job operator-cancelled and fires its context.
// Terminal jobs are left untouched; the returned status is the state the
// job was in when the request landed.
func (j *Job) requestCancel() JobStatus {
	j.mu.Lock()
	st := j.status
	live := !st.Terminal() && !j.closing
	j.requested = j.requested || live
	j.mu.Unlock()
	if live {
		j.cancel()
	}
	return st
}

// cancelRequested reports whether DELETE arrived (vs a timeout firing
// the same context).
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.requested
}

// AppendEvents publishes newly captured metrics rows to the job's event
// log and wakes waiting SSE readers. The local runner calls it from the
// VM goroutine; the fleet coordinator from a worker's proxied stream.
func (j *Job) AppendEvents(cols []string, rows []telemetry.SeriesRow) {
	if len(rows) == 0 {
		return
	}
	j.mu.Lock()
	if j.eventCols == nil {
		j.eventCols = append([]string(nil), cols...)
	}
	j.events = append(j.events, rows...)
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
	j.mu.Unlock()
}

// EventsSince returns the frozen columns and any rows past n.
func (j *Job) EventsSince(n int) ([]string, []telemetry.SeriesRow) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n >= len(j.events) {
		return j.eventCols, nil
	}
	rows := make([]telemetry.SeriesRow, len(j.events)-n)
	copy(rows, j.events[n:])
	return j.eventCols, rows
}

// eventWake returns a channel that closes on the next AppendEvents. Take
// it before reading the log so no append can slip between the read and
// the wait.
func (j *Job) eventWake() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wake == nil {
		j.wake = make(chan struct{})
	}
	return j.wake
}
