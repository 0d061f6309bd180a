package main

import (
	"fmt"
	"time"

	"instrsample/internal/bench"
	"instrsample/internal/compile"
	"instrsample/internal/core"
	"instrsample/internal/experiment"
	"instrsample/internal/oracle"
	"instrsample/internal/service"
	"instrsample/internal/telemetry"
	"instrsample/internal/vm"
)

// The traced run replays a workload's distinct specs in process, timing
// each layer through its public surface: bench.Benchmark.Build,
// compile.Compile, vm.New(...).Run bare, with a telemetry.Meter (as every
// daemon job runs) and with the oracle (as verify jobs run), and
// experiment.Cache Store/Load of the result.

// replaySpec is one configuration to replay.
type replaySpec struct {
	Bench     string
	Scale     float64
	Variation string // "none" when no framework runs
	Opts      experiment.OptsSpec
	Trig      experiment.TriggerSpec
	ICache    *vm.ICacheConfig
}

func (s replaySpec) key() string {
	return fmt.Sprintf("bench=%s scale=%g icache=%v %s %s", s.Bench, s.Scale, s.ICache != nil, s.Opts.Key(), s.Trig.Key())
}

// variations are the framework variations by the names jobs use.
var variations = []string{"none", "full", "partial", "nodup", "hybrid"}

func framework(v string) *core.Options {
	switch v {
	case "full":
		return &core.Options{Variation: core.FullDuplication}
	case "partial":
		return &core.Options{Variation: core.PartialDuplication}
	case "nodup":
		return &core.Options{Variation: core.NoDuplication}
	case "hybrid":
		return &core.Options{Variation: core.Hybrid}
	}
	return nil
}

// mixBenches are the programs the daemon mixes draw from.
func mixBenches() []string {
	var out []string
	for _, b := range bench.Suite() {
		out = append(out, b.Name)
	}
	return append(out, "resonant")
}

// fromJob maps a job spec to the compile and trigger configuration the
// daemon runs it with (isamp's defaults: counter trigger, interval 1000,
// random jitter interval/10 with seed 1).
func fromJob(s service.JobSpec) replaySpec {
	r := replaySpec{Bench: s.Bench, Scale: specScale(s.Scale), Variation: s.Variation}
	if r.Variation == "" {
		r.Variation = "none"
	}
	r.Opts = experiment.OptsSpec{Instr: append([]string(nil), s.Instrument...), Verify: s.Verify, Framework: framework(s.Variation)}
	if r.Opts.Framework != nil {
		r.Opts.Framework.YieldpointOpt = s.Yieldopt
	}
	interval := s.Interval
	if interval == 0 {
		interval = 1000
	}
	switch s.Trigger {
	case "perthread":
		r.Trig = experiment.TriggerSpec{Kind: "perthread", Interval: interval}
	case "timer":
		period := s.Period
		if period == 0 {
			period = 3330000
		}
		r.Trig = experiment.TimerTrigger(period)
	case "random":
		j := s.Jitter
		if j == 0 {
			j = interval / 10
		}
		r.Trig = experiment.RandomizedTrigger(interval, j, 1)
	case "never":
		r.Trig = experiment.NeverTrigger()
	case "always":
		r.Trig = experiment.AlwaysTrigger()
	default:
		r.Trig = experiment.CounterTrigger(interval)
	}
	if s.ICache {
		r.ICache = vm.DefaultICache()
	}
	return r
}

// fillScale is the scale of filled-in replay specs: the middle of the
// daemon mix's scale range.
const fillScale = 0.03

// replaySet picks up to perBench distinct specs per program, in the
// order given, then fills in any mix program or variation the workload
// never reached (at fillScale, counter trigger 1000), so every traced
// run reports the same per-layer metric names.
func replaySet(specs []replaySpec, perBench int) (out []replaySpec, filled int) {
	seen := map[string]bool{}
	count := map[string]int{}
	vars := map[string]bool{}
	for _, s := range specs {
		if s.Bench == "" || seen[s.key()] || count[s.Bench] >= perBench {
			continue
		}
		seen[s.key()] = true
		count[s.Bench]++
		vars[s.Variation] = true
		out = append(out, s)
	}
	for _, b := range mixBenches() {
		if count[b] == 0 {
			out = append(out, replaySpec{Bench: b, Scale: fillScale, Variation: "none", Trig: experiment.CounterTrigger(1000)})
			filled++
		}
	}
	for _, v := range variations {
		if !vars[v] {
			out = append(out, replaySpec{Bench: "compress", Scale: fillScale, Variation: v,
				Opts: experiment.OptsSpec{Instr: []string{"call-edge"}, Framework: framework(v)},
				Trig: experiment.CounterTrigger(1000)})
			filled++
		}
	}
	return out, filled
}

// vmRun sums VM runs of one program: executed instructions and wall
// time.
type vmRun struct {
	instrs uint64
	ns     float64
}

func (r *vmRun) add(instrs uint64, ns float64) { r.instrs += instrs; r.ns += ns }

// replayStats accumulates the layer timings of a replay.
type replayStats struct {
	buildUs   map[string][]float64 // by bench
	compileUs map[string][]float64 // by variation
	work      map[string][]float64 // by bench
	bare      map[string]*vmRun    // by bench
	meter     map[string]*vmRun    // by bench
	oracleNs  float64
	oracleBar float64 // bare time of the same specs
	loadUs    []float64
	storeUs   []float64
	tally     Tally
	failures  []string
}

func newReplayStats() *replayStats {
	st := &replayStats{
		buildUs: map[string][]float64{}, compileUs: map[string][]float64{},
		work: map[string][]float64{}, bare: map[string]*vmRun{}, meter: map[string]*vmRun{},
	}
	for _, b := range mixBenches() {
		st.bare[b], st.meter[b] = &vmRun{}, &vmRun{}
	}
	return st
}

// replay runs every spec through the layers. Each run's Return and
// Output are checked against the reference, and the oracle's verdict
// must be clean.
func replay(specs []replaySpec, r *refs, cache *experiment.Cache, tr *tracer) *replayStats {
	st := newReplayStats()
	for _, s := range specs {
		st.tally.Attempted++
		if err := replayOne(s, r, cache, tr, st); err != nil {
			st.tally.Wrong++
			st.failures = append(st.failures, fmt.Sprintf("replay %s: %v", s.key(), err))
			continue
		}
		st.tally.Done++
	}
	return st
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

func replayOne(s replaySpec, r *refs, cache *experiment.Cache, tr *tracer, st *replayStats) error {
	req := s.key()
	root := tr.id()
	rootStart := time.Now()
	defer func() { tr.add(root, 0, "replay.spec", req, rootStart, time.Now()) }()
	want, ok := r.get(refKey(s.Bench, s.Scale))
	if !ok {
		return fmt.Errorf("no reference")
	}

	t0 := time.Now()
	prog, err := buildBench(s.Bench, s.Scale)
	if err != nil {
		return err
	}
	st.buildUs[s.Bench] = append(st.buildUs[s.Bench], usSince(t0))
	tr.add(tr.id(), root, "bench.Build", req, t0, time.Now())
	copts, err := s.Opts.Options()
	if err != nil {
		return err
	}

	var bareNs float64
	var res *experiment.CellResult
	for _, mode := range []string{"bare", "meter", "oracle"} {
		t0 := time.Now()
		cr, err := compile.Compile(prog, copts)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		st.compileUs[s.Variation] = append(st.compileUs[s.Variation], usSince(t0))
		tr.add(tr.id(), root, "compile.Compile", req, t0, time.Now())
		if mode == "bare" {
			st.work[s.Bench] = append(st.work[s.Bench], float64(cr.Work))
		}

		trig := s.Trig.New()
		cfg := vm.Config{Trigger: trig, Handlers: cr.Handlers, ICache: s.ICache, IterBudget: s.Opts.IterBudget}
		var meter *telemetry.Meter
		var orc *oracle.Oracle
		switch mode {
		case "meter":
			meter = telemetry.NewMeter(telemetry.NewRegistry(), trig.Name(), 1<<16, nil)
			cfg.Observer = meter
		case "oracle":
			orc = oracle.New()
			cfg.Observer = orc
		}
		v := vm.New(cr.Prog, cfg)
		if meter != nil {
			meter.SetClock(v)
		}
		t0 = time.Now()
		out, err := v.Run()
		ns := float64(time.Since(t0).Nanoseconds())
		tr.add(tr.id(), root, "vm.Run."+mode, req, t0, time.Now())
		if err != nil {
			return fmt.Errorf("run %s: %w", mode, err)
		}
		if !want.equal(out.Return, out.Output) {
			return fmt.Errorf("run %s: return %d output %v, reference %d %v", mode, out.Return, out.Output, want.Return, want.Output)
		}
		switch mode {
		case "bare":
			bareNs = ns
			st.bare[s.Bench].add(out.Stats.Instrs, ns)
			res = &experiment.CellResult{Stats: out.Stats, Return: out.Return, Output: out.Output,
				CodeSize: cr.CodeSize, CheckingCodeSize: cr.CheckingCodeSize,
				DuplicatedCodeSize: cr.DuplicatedCodeSize, Work: cr.Work}
			for _, rt := range cr.Runtimes {
				res.Profiles = append(res.Profiles, rt.Profile())
			}
		case "meter":
			meter.Finish()
			st.meter[s.Bench].add(out.Stats.Instrs, ns)
		case "oracle":
			if err := orc.Finish(out.Stats); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			st.oracleNs += ns
			st.oracleBar += bareNs
		}
	}

	key := "perfbench " + req
	t0 = time.Now()
	cache.Store(key, res)
	st.storeUs = append(st.storeUs, usSince(t0))
	tr.add(tr.id(), root, "experiment.Cache.Store", req, t0, time.Now())
	t0 = time.Now()
	got, ok := cache.Load(key)
	st.loadUs = append(st.loadUs, usSince(t0))
	tr.add(tr.id(), root, "experiment.Cache.Load", req, t0, time.Now())
	if !ok || !want.equal(got.Return, got.Output) {
		return fmt.Errorf("cache round trip lost the result")
	}
	return nil
}

// calibrationScale is the scale the VM layer is calibrated at.
const calibrationScale = 0.05

// vmRate is one program's VM layer numbers.
type vmRate struct {
	minstrs float64 // millions of instructions per second
	fused   float64 // FusionStats.Instrs ÷ Stats.Instrs
}

// calibrate measures each mix program's VM rate on its own:
// uninstrumented, no observer, at calibrationScale, the median of three
// runs. The rate is a layer number in its own right and the base the
// replay's runs are reconciled against.
func calibrate(tr *tracer) (map[string]vmRate, error) {
	copts, err := experiment.OptsSpec{}.Options()
	if err != nil {
		return nil, err
	}
	out := map[string]vmRate{}
	for _, b := range mixBenches() {
		prog, err := buildBench(b, calibrationScale)
		if err != nil {
			return nil, err
		}
		var rates []float64
		var fs vm.FusionStats
		var instrs uint64
		for i := 0; i < 3; i++ {
			cr, err := compile.Compile(prog, copts)
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", b, err)
			}
			v := vm.New(cr.Prog, vm.Config{Handlers: cr.Handlers})
			t0 := time.Now()
			res, err := v.Run()
			ns := float64(time.Since(t0).Nanoseconds())
			tr.add(tr.id(), 0, "vm.Run.calibrate", b, t0, time.Now())
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", b, err)
			}
			rates = append(rates, float64(res.Stats.Instrs)/ns*1e3)
			fs, instrs = v.FusionStats(), res.Stats.Instrs
		}
		out[b] = vmRate{minstrs: Median(rates).Value, fused: NewRatio(float64(fs.Instrs), float64(instrs), "instrs").Value}
	}
	return out, nil
}

// layerMetrics turns the calibration and the replay into the
// per-program and per-variation metrics. The reconciliation gap compares
// the replayed Run spans in the mode the daemons run jobs in (Meter
// attached) with what vm.minstrs_per_sec predicts for their
// Stats.Instrs: Σ span ÷ Σ (instrs ÷ rate) − 1.
func (st *replayStats) layerMetrics(m metrics, rates map[string]vmRate) {
	for _, b := range mixBenches() {
		m.set("bench.build_us."+b, Median(st.buildUs[b]).Value, "us")
		m.set("compile.work."+b, Median(st.work[b]).Value, "count")
		r := rates[b]
		m.set("vm.minstrs_per_sec."+b, r.minstrs, "Minstr/s")
		m.set("vm.fused_share."+b, r.fused, "ratio")
		runs := st.meter[b]
		gap := 0.0
		if r.minstrs > 0 && runs.instrs > 0 {
			gap = NewRatio(runs.ns, float64(runs.instrs)/r.minstrs*1e3, "predicted ns").Value - 1
		}
		m.set("vm.recon_gap."+b, gap, "ratio")
		m.set("telemetry.meter_ratio."+b, NewRatio(st.meter[b].ns, st.bare[b].ns, "bare vm.Run").Value, "ratio")
	}
	for _, v := range variations {
		m.set("compile.compile_us."+v, Median(st.compileUs[v]).Value, "us")
	}
	m.set("oracle.verify_ratio", NewRatio(st.oracleNs, st.oracleBar, "bare vm.Run").Value, "ratio")
	m.set("experiment.cache_load_us.p50", Median(st.loadUs).Value, "us")
	m.set("experiment.cache_store_us.p50", Median(st.storeUs).Value, "us")
}
