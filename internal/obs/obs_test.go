package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic monotone clock; each Advance moves it.
type fakeClock struct {
	mu sync.Mutex
	at time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{at: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"off", ModeOff}, {"spans", ModeSpans}, {"full", ModeFull}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Mode(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseMode("verbose"); err == nil {
		t.Fatal("ParseMode accepted unknown mode")
	}
}

func TestStartJobOffReturnsNilAndNilTraceIsSafe(t *testing.T) {
	s := NewState(Options{Mode: ModeOff})
	tr := s.StartJob()
	if tr != nil {
		t.Fatal("StartJob at ModeOff returned a trace")
	}
	// Every method must be a no-op on the nil trace.
	tr.SetJob("job-000001")
	tr.Begin(StageValidate, "")
	tr.Finish("done")
	if tr.Done() {
		t.Fatal("nil trace reports done")
	}
	if tr.Ledger() != nil {
		t.Fatal("nil trace produced a ledger")
	}
	if tr.Spans() != nil {
		t.Fatal("nil trace produced spans")
	}
}

func TestSetModeTogglesAtRuntime(t *testing.T) {
	s := NewState(Options{Mode: ModeOff})
	if s.StartJob() != nil {
		t.Fatal("off mode produced a trace")
	}
	s.SetMode(ModeSpans)
	if s.StartJob() == nil {
		t.Fatal("spans mode produced no trace")
	}
	s.SetMode(ModeOff)
	if s.StartJob() != nil {
		t.Fatal("toggle back to off still produced a trace")
	}
}

// TestLedgerSumInvariant is the core guarantee: per-stage durations sum
// to end-to-end latency exactly, with no rounding slack.
func TestLedgerSumInvariant(t *testing.T) {
	clock := newFakeClock()
	s := NewState(Options{Mode: ModeSpans, Now: clock.Now})
	tr := s.StartJob()
	tr.SetJob("job-000001")
	clock.Advance(17 * time.Microsecond)
	tr.Begin(StageValidate, "")
	clock.Advance(3 * time.Microsecond)
	tr.Begin(StageQueueWait, "")
	clock.Advance(1250 * time.Microsecond)
	tr.Begin(StageCacheProbe, "")
	clock.Advance(41 * time.Microsecond)
	tr.Begin(StageCompile, "")
	clock.Advance(503 * time.Microsecond)
	tr.Begin(StageVMRun, "")
	clock.Advance(9_777 * time.Microsecond)
	tr.Begin(StageExport, "")
	clock.Advance(29 * time.Microsecond)
	tr.Finish("done")

	l := tr.Ledger()
	if l == nil {
		t.Fatal("no ledger")
	}
	if got, want := l.Sum(), int64((17+3+1250+41+503+9777+29)*1000); got != want {
		t.Fatalf("ledger sum = %d, want %d", got, want)
	}
	if l.Sum() != l.TotalNs {
		t.Fatalf("ledger sum %d != total %d", l.Sum(), l.TotalNs)
	}
	if l.Status != "done" {
		t.Fatalf("ledger status = %q", l.Status)
	}
	wantOrder := []Stage{StageAccept, StageValidate, StageQueueWait,
		StageCacheProbe, StageCompile, StageVMRun, StageExport}
	if len(l.Rows) != len(wantOrder) {
		t.Fatalf("ledger rows = %d, want %d", len(l.Rows), len(wantOrder))
	}
	for i, st := range wantOrder {
		if l.Rows[i].Stage != st {
			t.Fatalf("row %d stage = %v, want %v", i, l.Rows[i].Stage, st)
		}
	}
}

// TestSpanChainGapFree checks contiguity: every span starts exactly
// where the previous one ended.
func TestSpanChainGapFree(t *testing.T) {
	clock := newFakeClock()
	s := NewState(Options{Mode: ModeSpans, Now: clock.Now})
	tr := s.StartJob()
	tr.SetJob("job-000002")
	for _, st := range []Stage{StageValidate, StageQueueWait, StageCompile, StageVMRun, StageExport} {
		clock.Advance(time.Duration(7+int(st)) * time.Microsecond)
		tr.Begin(st, "")
	}
	clock.Advance(5 * time.Microsecond)
	tr.Finish("done")

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNs != spans[i-1].EndNs {
			t.Fatalf("gap between span %d (%v end=%d) and %d (%v start=%d)",
				i-1, spans[i-1].Stage, spans[i-1].EndNs,
				i, spans[i].Stage, spans[i].StartNs)
		}
	}
	last := spans[len(spans)-1]
	if last.Stage != StageTerminal || last.Cause != "done" || last.StartNs != last.EndNs {
		t.Fatalf("bad terminal span %+v", last)
	}
}

func TestBeginAfterFinishIgnored(t *testing.T) {
	clock := newFakeClock()
	s := NewState(Options{Mode: ModeSpans, Now: clock.Now})
	tr := s.StartJob()
	tr.SetJob("job-000003")
	clock.Advance(time.Microsecond)
	tr.Finish("cancelled")
	before := tr.Ledger().Sum()
	clock.Advance(time.Second)
	tr.Begin(StageVMRun, "")
	tr.Finish("done")
	l := tr.Ledger()
	if l.Sum() != before || l.Status != "cancelled" {
		t.Fatalf("post-finish calls mutated the chain: sum %d→%d status %q",
			before, l.Sum(), l.Status)
	}
}

func TestMemoFlightCauseLink(t *testing.T) {
	clock := newFakeClock()
	s := NewState(Options{Mode: ModeSpans, Now: clock.Now})
	tr := s.StartJob()
	tr.SetJob("job-000005")
	clock.Advance(time.Microsecond)
	tr.Begin(StageMemoFlight, "job-000004")
	clock.Advance(time.Millisecond)
	tr.Finish("done")
	row, ok := tr.Ledger().Row(StageMemoFlight)
	if !ok || row.Cause != "job-000004" {
		t.Fatalf("memo-flight row = %+v ok=%v, want cause job-000004", row, ok)
	}
}

func TestLiveLedgerReconciles(t *testing.T) {
	clock := newFakeClock()
	s := NewState(Options{Mode: ModeSpans, Now: clock.Now})
	tr := s.StartJob()
	clock.Advance(10 * time.Microsecond)
	tr.Begin(StageQueueWait, "")
	clock.Advance(30 * time.Microsecond)
	l := tr.Ledger()
	if l.Sum() != l.TotalNs {
		t.Fatalf("live ledger sum %d != total %d", l.Sum(), l.TotalNs)
	}
	if l.TotalNs != 40_000 {
		t.Fatalf("live ledger total = %d, want 40000", l.TotalNs)
	}
	if l.Status != "" {
		t.Fatalf("live ledger has terminal status %q", l.Status)
	}
}

func TestStageTextRoundTrip(t *testing.T) {
	for st := StageAccept; st < numStages; st++ {
		b, err := st.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Stage
		if err := back.UnmarshalText(b); err != nil || back != st {
			t.Fatalf("round-trip %v -> %s -> %v (%v)", st, b, back, err)
		}
	}
	var s Stage
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted bogus stage")
	}
}

func TestTracerCapacityAndDrops(t *testing.T) {
	tr := NewTracer(10)
	if tr.Cap() != 16 {
		t.Fatalf("cap = %d, want 16 (rounded up)", tr.Cap())
	}
	for i := 0; i < 40; i++ {
		tr.Record(Span{Job: "j", Stage: StageAccept, StartNs: int64(i)})
	}
	if tr.Total() != 40 {
		t.Fatalf("total = %d, want 40", tr.Total())
	}
	if tr.Drops() != 24 {
		t.Fatalf("drops = %d, want exactly 40-16=24", tr.Drops())
	}
	snap := tr.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot = %d spans, want 16", len(snap))
	}
	// Overwrite-oldest: the retained spans are the newest 16.
	for i, s := range snap {
		if want := int64(24 + i); s.StartNs != want {
			t.Fatalf("snapshot[%d].StartNs = %d, want %d", i, s.StartNs, want)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{})
	if tr.Total() != 0 || tr.Drops() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer not inert")
	}
}

// TestTracerConcurrentRecord exercises the multi-producer path under the
// race detector: concurrent records plus snapshot reads must be clean,
// and drop accounting must stay exact.
func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(1 << 8)
	const producers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
			}
		}
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(Span{Job: "j", Stage: Stage(p % int(numStages)), StartNs: int64(i)})
			}
		}(p)
	}
	for len(stop) == 0 && tr.Total() < producers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if tr.Total() != producers*per {
		t.Fatalf("total = %d, want %d", tr.Total(), producers*per)
	}
	if want := uint64(producers*per - tr.Cap()); tr.Drops() != want {
		t.Fatalf("drops = %d, want exactly %d", tr.Drops(), want)
	}
	if got := len(tr.Snapshot()); got != tr.Cap() {
		t.Fatalf("snapshot = %d spans, want %d", got, tr.Cap())
	}
}

func TestWriteJobChromeTrace(t *testing.T) {
	clock := newFakeClock()
	s := NewState(Options{Mode: ModeSpans, Now: clock.Now})
	tr := s.StartJob()
	tr.SetJob("job-000007")
	clock.Advance(5 * time.Microsecond)
	tr.Begin(StageVMRun, "")
	clock.Advance(100 * time.Microsecond)
	tr.Begin(StageExport, "")
	clock.Advance(2 * time.Microsecond)
	tr.Finish("done")

	var buf bytes.Buffer
	if err := WriteJobChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var sawVMRun, sawTerminal bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Name == "vm-run":
			sawVMRun = true
			if e.Ts != 5 || e.Dur != 100 {
				t.Fatalf("vm-run event ts=%d dur=%d, want ts=5 dur=100", e.Ts, e.Dur)
			}
			if e.Args["job"] != "job-000007" {
				t.Fatalf("vm-run job arg = %v", e.Args["job"])
			}
		case e.Ph == "i" && e.Name == "terminal":
			sawTerminal = true
			if e.Args["cause"] != "done" {
				t.Fatalf("terminal cause = %v", e.Args["cause"])
			}
		}
	}
	if !sawVMRun || !sawTerminal {
		t.Fatalf("missing events: vm-run=%v terminal=%v", sawVMRun, sawTerminal)
	}
	if doc.OtherData["job"] != "job-000007" {
		t.Fatalf("otherData job = %v", doc.OtherData["job"])
	}
}

func TestAlignCyclesEndpoints(t *testing.T) {
	// Window [1000ns, 101000ns], 100 cycles, base 0: cycle 0 → 1µs,
	// cycle 100 → 101µs, cycle 50 → 51µs.
	f := alignCycles(1000, 101000, 100, 0)
	if got := f(0); got != 1 {
		t.Fatalf("cycle 0 → %dµs, want 1", got)
	}
	if got := f(100); got != 101 {
		t.Fatalf("cycle 100 → %dµs, want 101", got)
	}
	if got := f(50); got != 51 {
		t.Fatalf("cycle 50 → %dµs, want 51", got)
	}
	// Degenerate: zero cycles pins to window start.
	g := alignCycles(5000, 5000, 0, 0)
	if got := g(7); got != 5 {
		t.Fatalf("degenerate cycle 7 → %dµs, want 5", got)
	}
}

// TestUnnamedChainRecordsNothing: a chain abandoned before SetJob (a
// rejected request) leaves no spans in the shared ring; naming the
// chain flushes everything buffered so far, stamped with the job ID.
func TestUnnamedChainRecordsNothing(t *testing.T) {
	clock := newFakeClock()
	s := NewState(Options{Mode: ModeSpans, Now: clock.Now})

	rejected := s.StartJob()
	clock.Advance(time.Microsecond)
	rejected.Begin(StageValidate, "")
	clock.Advance(time.Microsecond)
	// Abandoned: no SetJob, no Finish.
	if n := s.Tracer().Total(); n != 0 {
		t.Fatalf("rejected request recorded %d ring spans, want 0", n)
	}

	accepted := s.StartJob()
	clock.Advance(time.Microsecond)
	accepted.Begin(StageValidate, "")
	clock.Advance(time.Microsecond)
	accepted.SetJob("job-000009")
	if n := s.Tracer().Total(); n != 1 {
		t.Fatalf("ring spans after SetJob = %d, want 1 (the accept span)", n)
	}
	accepted.Begin(StageQueueWait, "")
	clock.Advance(time.Microsecond)
	accepted.Finish("done")
	for _, sp := range s.Tracer().Snapshot() {
		if sp.Job != "job-000009" {
			t.Fatalf("ring span %+v missing job id", sp)
		}
	}
	if n := s.Tracer().Total(); n != 4 {
		t.Fatalf("ring spans = %d, want 4 (accept, validate, queue-wait, terminal)", n)
	}
}
