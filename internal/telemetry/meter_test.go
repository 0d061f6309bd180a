package telemetry_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"instrsample/internal/profile"
	"instrsample/internal/telemetry"
)

func TestMeterMatchesVMStats(t *testing.T) {
	res := buildProgram(t, 64)
	reg := telemetry.NewRegistry()
	m := telemetry.NewMeter(reg, "counter/50", 2000, nil)
	out := run(t, res, m, m)
	m.Finish()

	s := out.Stats
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{telemetry.MetricEntries, s.MethodEntries},
		{telemetry.MetricChecks, s.Checks},
		{telemetry.MetricSamples + ".counter/50", s.CheckFires},
		{telemetry.MetricProbes, s.Probes},
		{telemetry.MetricYields, s.Yields},
		{telemetry.MetricDupEntries, s.DupEntries},
	} {
		if got := reg.Counter(tc.name).Value(); got != tc.want {
			t.Errorf("%s = %d, want %d (vm stats)", tc.name, got, tc.want)
		}
	}
	if got := reg.Counter(telemetry.MetricExits).Value(); got == 0 {
		t.Error("no method exits counted")
	}
	if got := reg.Counter(telemetry.MetricOverhead).Value(); got == 0 {
		t.Error("no overhead cycles accounted")
	}
	dup := reg.Counter(telemetry.MetricDupCycles).Value()
	if dup == 0 || dup >= s.Cycles {
		t.Errorf("dup cycles = %d, want in (0, %d)", dup, s.Cycles)
	}
	ppm := reg.Gauge(telemetry.MetricDupResidency).Value()
	if ppm <= 0 || ppm >= 1_000_000 {
		t.Errorf("dup residency = %d ppm, want in (0, 1e6)", ppm)
	}
	if got := reg.Gauge(telemetry.MetricCycles).Value(); uint64(got) != s.Cycles {
		t.Errorf("final cycle gauge = %d, want %d", got, s.Cycles)
	}

	rows := m.Series().Rows
	if len(rows) < 2 {
		t.Fatalf("series captured %d rows, want several", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].At <= rows[i-1].At {
			t.Fatalf("series timestamps not increasing at row %d", i)
		}
	}
	var buf bytes.Buffer
	if err := m.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasPrefix(header, "cycle,") || !strings.Contains(header, telemetry.MetricChecks) {
		t.Errorf("unexpected CSV header %q", header)
	}
}

// TestMeterDeterministic pins the cycle-domain clock: two identical runs
// produce byte-identical series.
func TestMeterDeterministic(t *testing.T) {
	series := func() *telemetry.Series {
		res := buildProgram(t, 64)
		reg := telemetry.NewRegistry()
		m := telemetry.NewMeter(reg, "counter/50", 2000, nil)
		run(t, res, m, m)
		m.Finish()
		return m.Series()
	}
	a, b := series(), series()
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical runs produced different series")
	}
}

func TestConvergenceSnapshotsProfiles(t *testing.T) {
	res := buildProgram(t, 256)
	// Discover the run length, then snapshot at an interval that yields
	// a handful of points.
	probe := run(t, res, nil)
	interval := probe.Stats.Cycles / 8

	build := func() []telemetry.ConvergencePoint {
		res := buildProgram(t, 256)
		src := func() []*profile.Profile {
			out := make([]*profile.Profile, len(res.Runtimes))
			for i, rt := range res.Runtimes {
				out[i] = rt.Profile()
			}
			return out
		}
		conv := telemetry.NewConvergence(interval, 0, src)
		run(t, res, conv, conv)
		return conv.Points()
	}

	pts := build()
	if len(pts) < 3 {
		t.Fatalf("got %d convergence points, want several", len(pts))
	}
	for i, pt := range pts {
		if len(pt.Profiles) != 1 {
			t.Fatalf("point %d has %d profiles, want 1", i, len(pt.Profiles))
		}
		if i > 0 {
			if pt.Cycle <= pts[i-1].Cycle {
				t.Fatalf("cycles not increasing at point %d", i)
			}
			if pt.Profiles[0].Total() < pts[i-1].Profiles[0].Total() {
				t.Fatalf("sample totals shrank at point %d", i)
			}
		}
	}
	// Clones must be snapshots, not aliases of the live profile.
	last := pts[len(pts)-1].Profiles[0]
	if last.Total() == 0 {
		t.Fatal("final snapshot is empty")
	}

	// Profiles carry Labeler funcs, which DeepEqual can't compare across
	// runs — compare cycle stamps and profile contents semantically.
	again := build()
	if len(again) != len(pts) {
		t.Fatalf("reruns disagree on point count: %d vs %d", len(pts), len(again))
	}
	for i := range pts {
		a, b := pts[i], again[i]
		if a.Cycle != b.Cycle || a.Profiles[0].Total() != b.Profiles[0].Total() ||
			profile.Overlap(a.Profiles[0], b.Profiles[0]) != 100 {
			t.Fatalf("reruns diverged at point %d (cycle %d vs %d)", i, a.Cycle, b.Cycle)
		}
	}
}

func TestConvergenceMaxSnapshots(t *testing.T) {
	res := buildProgram(t, 256)
	src := func() []*profile.Profile { return nil }
	conv := telemetry.NewConvergence(100, 5, src)
	run(t, res, conv, conv)
	if got := len(conv.Points()); got != 5 {
		t.Errorf("recorded %d points with max 5", got)
	}
}
