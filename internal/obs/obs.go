// Package obs is the service path's observability layer: request-scoped
// span tracing, per-job wall-clock attribution, and the runtime toggle
// that keeps all of it cheap enough to leave on. It applies the paper's
// thesis one layer up from the VM — observation of the *daemon* must be
// togglable and near-free when off, exactly like the sampling framework
// it serves.
//
// Three pieces:
//
//   - Tracer (tracer.go): a lock-free, power-of-two, overwrite-oldest
//     span ring with exact drop accounting — the same flight-recorder
//     discipline as telemetry.Trace, but multi-producer (HTTP handlers
//     and worker goroutines all record) and wall-clocked.
//
//   - JobTrace (span.go): one job's contiguous span chain through the
//     lifecycle stages (accept → validate → queue-wait → memo-flight /
//     cache-probe / compile / vm-run → export → terminal). Stages are
//     closed by opening the next one, so the chain is gap-free by
//     construction and the attribution ledger's stage durations sum to
//     the end-to-end latency *exactly* — an invariant the service tests
//     enforce. Memo-flight spans carry a cause link to the job that owns
//     the deduplicated flight.
//
//   - Chrome export (chrome.go): a merged trace-event document placing
//     wall-clock service spans and the VM's cycle-domain events on one
//     chrome://tracing timeline, with the cycle clock aligned to wall
//     time per run.
//
// The State's Mode is runtime-togglable (off | spans | full) and read
// with a single atomic load on the request path; ModeOff records
// nothing and allocates nothing. See DESIGN.md §14 for the span model,
// the clock-alignment rule and the togglability contract.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Mode selects how much the service path observes about itself.
type Mode int32

const (
	// ModeOff records nothing: no span chain is allocated, jobs carry no
	// ledger. The only cost left on the request path is one atomic mode
	// load per job.
	ModeOff Mode = iota
	// ModeSpans records the span chain and attribution ledger for every
	// accepted job (the daemon-side view).
	ModeSpans
	// ModeFull additionally attaches a telemetry.Trace to each executed
	// VM run and aligns its cycle clock to wall time, so the merged
	// export spans HTTP-to-opcode.
	ModeFull
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeSpans:
		return "spans"
	default:
		return "full"
	}
}

// ParseMode parses the -obs flag vocabulary.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "spans":
		return ModeSpans, nil
	case "full":
		return ModeFull, nil
	}
	return ModeOff, fmt.Errorf("unknown obs mode %q (want off, spans or full)", s)
}

// State is the daemon-wide observability state: the runtime-togglable
// mode and the shared span tracer. Every front door has one; a daemon
// that observes nothing runs in ModeOff.
type State struct {
	mode   atomic.Int32
	tracer *Tracer
	now    func() time.Time
}

// Options configures NewState. Zero values get defaults.
type Options struct {
	// Mode is the initial mode (default ModeOff).
	Mode Mode
	// TracerCap is the span ring capacity, rounded up to a power of two
	// (default 1<<14 spans).
	TracerCap int
	// Now replaces time.Now for every span timestamp — the deterministic
	// clock hook tests use. It must be monotonic non-decreasing.
	Now func() time.Time
}

// NewState builds the daemon-wide observability state.
func NewState(o Options) *State {
	if o.TracerCap <= 0 {
		o.TracerCap = 1 << 14
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	s := &State{tracer: NewTracer(o.TracerCap), now: o.Now}
	s.mode.Store(int32(o.Mode))
	return s
}

// Mode returns the current mode. Safe for concurrent use.
func (s *State) Mode() Mode { return Mode(s.mode.Load()) }

// SetMode switches the mode at runtime. Jobs already carrying a span
// chain finish it; jobs accepted after the switch follow the new mode.
func (s *State) SetMode(m Mode) { s.mode.Store(int32(m)) }

// Tracer returns the shared span ring.
func (s *State) Tracer() *Tracer { return s.tracer }

// StartJob opens a span chain for one request, beginning in StageAccept.
// It returns nil — record nothing, allocate nothing — when the mode is
// off, and callers must tolerate that: every JobTrace method is
// nil-safe.
func (s *State) StartJob() *JobTrace {
	if s.Mode() == ModeOff {
		return nil
	}
	t := &JobTrace{tracer: s.tracer, now: s.now}
	t.start = s.now()
	t.cur = StageAccept
	t.curStart = t.start
	t.curStartNs = t.start.UnixNano()
	return t
}
