package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/load"
	"instrsample/internal/service"
)

// Set-up is timed several times per run and reported as the median.
const (
	setupSamplesDaemon = 5
	setupSamplesFleet  = 3
	// refAhead is how many plan ops get references before timing starts;
	// ops past it (a host far faster than the reference one) get theirs
	// after the window, before any result is checked.
	refAhead = 3000
	// Probe sizes for layers a workload bypasses (see runner.traced).
	fleetProbeOps = 40
	frontDoorReps = 20
)

// e2e is one measured run of a workload: the end-to-end metrics with
// their sample counts, and what the traffic showed of each layer.
type e2e struct {
	Workload  Workload  `json:"workload"`
	Seed      int64     `json:"seed"`
	PlanHash  string    `json:"plan_hash"`
	WindowS   float64   `json:"window_s"`
	ElapsedS  float64   `json:"elapsed_s"`
	Tally     Tally     `json:"tally"`
	Failures  []string  `json:"failures,omitempty"`
	SetupS    []float64 `json:"setup_s_samples"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// JobsPerSec is jobs done per second.
	JobsPerSec float64  `json:"jobs_per_sec"`
	Job        Quantile `json:"job_p50_ms"`
	JobTail    Quantile `json:"job_p99_ms"`
	// JobTailChunks are the chunk p99s JobTail is the median of, when
	// the workload chunks its tail.
	JobTailChunks []float64 `json:"job_p99_chunks_ms,omitempty"`
	CancelTail    Quantile  `json:"cancel_p99_ms"`
	// Layer numbers from the traffic itself.
	SubmitUs    []float64          `json:"-"`
	QueueWaitUs []float64          `json:"-"`
	DoneLagUs   []float64          `json:"-"`
	Rejected429 int                `json:"rejected_429"`
	Scraped     map[string]float64 `json:"-"` // summed /metrics of the SUT
	Fabric      *fabricProbe       `json:"fabric,omitempty"`
	// ReplaySpecs are the distinct specs a traced run used, for the replay.
	ReplaySpecs []replaySpec `json:"-"`
	// DoneStartS are the start times of the jobs that completed
	// correctly, in seconds since the window opened.
	DoneStartS []float64 `json:"-"`
}

// runner holds what every run of one invocation shares.
type runner struct {
	env  env
	refs *refs
	hc   *http.Client
}

// traceSlice is the length of the alternating untraced and traced
// slices of a traced run's window.
const traceSlice = 2 * time.Second

// run measures one workload for the window. With tr set, client calls
// that start in the odd traceSlices of the window are recorded as spans,
// and the SUT is probed for fabric numbers before it stops.
func (rn *runner) run(ctx context.Context, w Workload, seed int64, window time.Duration, tr *tracer) (*e2e, error) {
	hash, err := planHash(w, seed)
	if err != nil {
		return nil, err
	}
	res := &e2e{Workload: w, Seed: seed, PlanHash: hash, WindowS: window.Seconds()}
	if err := rn.runHTTP(ctx, w, seed, window, tr, res); err != nil {
		return nil, err
	}
	if len(res.Failures) > 20 {
		res.Failures = res.Failures[:20]
	}
	return res, nil
}

// runHTTP runs a daemon or fleet workload.
func (rn *runner) runHTTP(ctx context.Context, w Workload, seed int64, window time.Duration, tr *tracer, res *e2e) error {
	ops, err := daemonPlan(w, seed)
	if err != nil {
		return err
	}
	if err := rn.refs.ensure(refJobs(ops[:min(refAhead, len(ops))])); err != nil {
		return err
	}
	cacheDir := ""
	if w.Name == "hot-cache" {
		if cacheDir, err = os.MkdirTemp(rn.env.scratch, "hot-cache-"); err != nil {
			return err
		}
		if err := rn.warm(ctx, cacheDir, distinctOps(ops)); err != nil {
			return fmt.Errorf("warming the cache: %w", err)
		}
	}

	// Set-up: start the system and time it to the first accepted job;
	// the last start is the one measured.
	var s *sut
	samples := setupSamplesDaemon
	if w.Kind == kindFleet {
		samples = setupSamplesFleet
	}
	for i := 0; i < samples; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		if w.Kind == kindFleet {
			s, err = rn.env.startFleet()
		} else {
			s, err = rn.env.startDaemon(cacheDir)
		}
		if err == nil {
			err = awaitAccept(rn.hc, s.front)
		}
		if err != nil {
			if s != nil {
				s.stop()
			}
			return err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer s.stop()

	var rssErr error
	d := drive(ctx, rn.hc, driveConfig{
		base: s.front, ops: ops, window: window, clients: w.Clients, minOps: w.RSSOps, tr: tr, abSlice: traceSlice,
		atMinOps: func() { res.PeakRSSMB, rssErr = s.peakRSSMB() },
	})
	if rssErr != nil {
		return rssErr
	}
	if res.Scraped, err = scrapeAll(rn.hc, s); err != nil {
		return err
	}
	if w.Kind == kindFleet && tr != nil {
		if res.Fabric, err = rn.probeFabric(ctx, s); err != nil {
			return err
		}
	}
	s.stop()

	var ran []load.Op
	for _, r := range d.records {
		ran = append(ran, r.op)
	}
	if err := rn.refs.ensure(refJobs(ran)); err != nil {
		return err
	}
	rn.summarize(res, d)
	if tr != nil {
		for _, op := range distinctOps(ran) {
			if op.Spec.Bench != "" {
				res.ReplaySpecs = append(res.ReplaySpecs, fromJob(op.Spec))
			}
		}
	}
	return nil
}

// summarize turns the client's records into the run's metrics.
func (rn *runner) summarize(res *e2e, d driveResult) {
	res.ElapsedS = d.elapsed.Seconds()
	var jobMs, cancelMs []float64
	for _, r := range d.records {
		t, why := outcome(rn.refs, r)
		res.Tally.Add(t)
		if why != "" {
			res.Failures = append(res.Failures, why)
		}
		failed := t.Failed() > 0
		res.Rejected429 += r.rejected
		switch {
		case r.op.Cancel && failed:
			cancelMs = append(cancelMs, failedOpsMs)
		case r.op.Cancel:
			cancelMs = append(cancelMs, r.cancelMs)
		case failed:
			jobMs = append(jobMs, failedOpsMs)
		default:
			res.DoneStartS = append(res.DoneStartS, r.startS)
			jobMs = append(jobMs, r.jobMs)
			res.SubmitUs = append(res.SubmitUs, r.submitUs)
			if r.timed {
				res.QueueWaitUs = append(res.QueueWaitUs, r.queueWaitUs)
				res.DoneLagUs = append(res.DoneLagUs, r.doneLagUs)
			}
		}
	}
	res.Job = Median(jobMs)
	res.JobTail, res.JobTailChunks = ChunkedTail(jobMs, res.Workload.TailChunk, 99)
	res.CancelTail = Tail(cancelMs, 99)
	if res.ElapsedS > 0 {
		res.JobsPerSec = float64(res.Tally.Done) / res.ElapsedS
	}
}

// warm resolves the hot-cache specs once on a daemon with the disk
// cache, so the measured daemon starts with every result on disk.
func (rn *runner) warm(ctx context.Context, cacheDir string, ops []load.Op) error {
	s, err := rn.env.startDaemon(cacheDir)
	if err != nil {
		return err
	}
	defer s.stop()
	d := drive(ctx, rn.hc, driveConfig{base: s.front, ops: ops, minOps: len(ops)})
	t, failures := tally(rn.refs, d.records)
	if t.Failed() > 0 || t.Done != len(ops) {
		return fmt.Errorf("%d of %d warm-up jobs failed: %v", len(ops)-t.Done, len(ops), failures)
	}
	return nil
}

// scrape reads a Prometheus text page into name → value.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

// scrapeAll sums every process's /metrics page by metric name.
func scrapeAll(hc *http.Client, s *sut) (map[string]float64, error) {
	total := map[string]float64{}
	for _, p := range s.procs {
		m, err := scrape(hc, p.addr)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// sumPrefix adds up every scraped series whose name starts with prefix
// (the engine suffixes its counters with the requesting artifact).
func sumPrefix(m map[string]float64, prefix string) float64 {
	t := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// fabricProbe is what the fleet front door adds, measured with one
// cache-hit spec, plus the coordinator's own counters.
type fabricProbe struct {
	FrontDoorUs   float64  `json:"front_door_us"` // coordinator p50 minus direct-to-worker p50
	ViaFleet      Quantile `json:"via_fleet_us"`
	Direct        Quantile `json:"direct_us"`
	CASGetUs      Quantile `json:"cas_get_us"`
	Steals        float64  `json:"steals"`
	Requeues      float64  `json:"requeues"`
	CASRemoteHits float64  `json:"cas_remote_hits"`
	Tally         Tally    `json:"tally"`
	Failures      []string `json:"failures,omitempty"`
}

// probeFabric times one cache-hit spec through the coordinator and
// straight to a worker, and the coordinator's CAS read of its result.
func (rn *runner) probeFabric(ctx context.Context, s *sut) (*fabricProbe, error) {
	spec := service.JobSpec{Bench: "db", Scale: 0.01}
	if err := rn.refs.ensure([]refJob{{spec.Bench, spec.Scale}}); err != nil {
		return nil, err
	}
	fp := &fabricProbe{}
	worker := s.procs[0].addr
	timeOps := func(base string) []float64 {
		ops := make([]load.Op, frontDoorReps)
		for i := range ops {
			ops[i] = load.Op{Index: i, Spec: spec, ReuseOf: -1}
		}
		var ms []float64
		// The first, alone, makes sure the result exists; the rest are
		// the cache hits timed.
		for _, batch := range [][]load.Op{ops[:1], ops} {
			d := drive(ctx, rn.hc, driveConfig{base: base, ops: batch, minOps: len(batch)})
			t, failures := tally(rn.refs, d.records)
			fp.Tally.Add(t)
			fp.Failures = append(fp.Failures, failures...)
			ms = ms[:0]
			for _, r := range d.records {
				ms = append(ms, r.jobMs*1e3)
			}
		}
		return ms
	}
	fp.ViaFleet = Median(timeOps(s.front))
	fp.Direct = Median(timeOps(worker))
	fp.FrontDoorUs = fp.ViaFleet.Value - fp.Direct.Value

	id, err := buildID(filepath.Join(rn.env.bin, "isampd"))
	if err != nil {
		return nil, err
	}
	url := s.front + "/v1/cas/" + experiment.CASAddr(id, spec.CellKey())
	var us []float64
	for i := 0; i < frontDoorReps; i++ {
		fp.Tally.Attempted++
		t0 := time.Now()
		resp, err := rn.hc.Get(url)
		if err != nil {
			fp.Tally.Transport++
			continue
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil || resp.StatusCode != http.StatusOK {
			fp.Tally.JobFailed++
			continue
		}
		fp.Tally.Done++
		us = append(us, usSince(t0))
	}
	fp.CASGetUs = Median(us)
	m, err := scrape(rn.hc, s.front)
	if err != nil {
		return nil, err
	}
	fp.Steals = m["fleet_steals"]
	fp.Requeues = m["fleet_requeues"]
	fp.CASRemoteHits = m["fleet_cas_remote_hit"]
	return fp, nil
}
