package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"instrsample/internal/experiment"
	"instrsample/internal/fabric"
	"instrsample/internal/load"
	"instrsample/internal/obs"
	"instrsample/internal/service"
)

// selfHostFleet boots an in-process experiment fabric — n isampd workers
// plus an isampfleet coordinator, all on ephemeral ports — and returns
// the coordinator's base URL, a killOne that hard-kills the last worker's
// HTTP side (the mid-run recovery leg), and a shutdown that drains
// everything and removes the cache directories.
func selfHostFleet(n, perWorker, queue int, mode obs.Mode, logf func(string, ...any)) (string, func(), func(), error) {
	var (
		daemons []*service.Server
		servers []*http.Server
		dirs    []string
		confs   []fabric.WorkerConf
	)
	cleanup := func() {
		for _, srv := range servers {
			srv.Close()
		}
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "isampload-fleet-*")
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		dirs = append(dirs, dir)
		cache, err := experiment.OpenCache(dir)
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		s := service.New(service.Config{
			Workers:    perWorker,
			QueueDepth: queue,
			Cache:      cache,
			Obs:        obs.NewState(obs.Options{Mode: mode}),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return "", nil, nil, err
		}
		srv := &http.Server{Handler: s.Handler()}
		go srv.Serve(ln) //nolint:errcheck // closed by killOne or shutdown
		daemons = append(daemons, s)
		servers = append(servers, srv)
		confs = append(confs, fabric.WorkerConf{
			Name: fmt.Sprintf("w%d", i),
			URL:  "http://" + ln.Addr().String(),
		})
	}
	casDir, err := os.MkdirTemp("", "isampload-cas-*")
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	dirs = append(dirs, casDir)
	c, err := fabric.New(fabric.Config{
		Config: service.Config{
			QueueDepth: queue,
			Obs:        obs.NewState(obs.Options{Mode: mode}),
		},
		Fleet:          fabric.FleetConf{Workers: confs},
		CacheDir:       casDir,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	front := &http.Server{Handler: c.Handler()}
	go front.Serve(ln) //nolint:errcheck // closed in shutdown

	killOne := func() {
		if n < 2 {
			return
		}
		logf("fleet: killing worker w%d mid-run", n-1)
		servers[n-1].Close()
	}
	shutdown := func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Shutdown(dctx)     //nolint:errcheck
		front.Shutdown(dctx) //nolint:errcheck
		for _, d := range daemons {
			d.Shutdown(dctx) //nolint:errcheck
		}
		cleanup()
	}
	return "http://" + ln.Addr().String(), killOne, shutdown, nil
}

// waitFleetUp polls the coordinator's /healthz until every worker
// reports up, so the soak never measures the health handshake.
func waitFleetUp(base string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var doc struct {
				Workers map[string]struct {
					Up bool `json:"up"`
				} `json:"workers"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if derr == nil {
				up := 0
				for _, w := range doc.Workers {
					if w.Up {
						up++
					}
				}
				if up == n {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d workers never came up within %s", n, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFleetSoakSmoke soaks a self-hosted isampfleet coordinator over two
// isampd workers and hard-kills one worker halfway through the window.
// Timing ceilings are relaxed for shared hosts; the exact gates — zero
// failed jobs even with the mid-run kill (worker loss must requeue, not
// fail), zero leaked goroutines, zero transport errors — are the check.
func TestFleetSoakSmoke(t *testing.T) {
	mix, _ := smokeMix(t, 3, 400)
	plan, err := load.Plan(mix)
	if err != nil {
		t.Fatal(err)
	}
	const duration = 2 * time.Second
	base, killOne, shutdown, err := selfHostFleet(2, runtime.GOMAXPROCS(0), 64, obs.ModeSpans, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if err := waitFleetUp(base, 2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(duration/2, killOne)
	defer kill.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := load.Run(ctx, plan, load.Options{
		BaseURL:  base,
		Clients:  4,
		Duration: duration,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if kill.Stop() {
		t.Fatal("soak finished before the mid-run worker kill fired")
	}

	gates := load.DefaultGates()
	gates.MinThroughputJobsPerSec = 1
	gates.MaxP99Ms = 60000
	gates.MaxCancelP99Ms = 60000
	gates.MaxQueueWaitP99Ms = 60000
	verdicts := gates.Check(res)
	if !load.AllOK(verdicts) {
		t.Errorf("fleet soak violated gates: %+v\ncounts: %+v\nerrors: %v", verdicts, res.Counts, res.Errors)
	}
	for _, name := range []string{"failed_jobs", "leaked_goroutines", "transport_errors"} {
		found := false
		for _, g := range verdicts {
			if g.Name == name {
				found = g.Bound == 0
			}
		}
		if !found {
			t.Errorf("exact gate %s missing or not at zero", name)
		}
	}
	if res.Counts.Submitted == 0 {
		t.Error("fleet soak submitted no jobs")
	}
	t.Logf("fleet soak: %+v", res.Counts)
}
